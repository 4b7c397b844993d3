"""Metropolis kernels and exact Markov-chain arithmetic on Coxeter groups.

The single-generator Metropolis kernel for the stationary law
pi(w) proportional to theta^{-length(w)} is

    K_i(x, s_i x) = 1          if length(s_i x) > length(x),
    K_i(x, s_i x) = theta      if length(s_i x) < length(x),
    K_i(x, x)     = 1 - theta  in the second case,

and systematic scans are matrix products of these.  All arithmetic is on
integers over a single shared denominator, so every identity check in
this module is exact.  One letter routine right-multiplies a block of
rows by K_i at O(|W|) per row:

* :func:`evolve_scan` applies it to the single row of a start
  distribution, so one pass of a scan costs O(|W| * letters) and no
  kernel is ever formed (the matrix-free path);
* :func:`scan_kernel` and :func:`random_scan_kernel` apply it to the
  identity block, giving the dense |W| x |W| kernel that :func:`evolve`,
  :func:`kernel_power` and the operator-level checks work on (the dense
  path, O(|W|^2) cells, kept as the oracle for the matrix-free one).

The scan recipe (i_1, ..., i_k) applies K_{i_1} first, i.e. the kernel is
the matrix product K_{i_1} K_{i_2} ... K_{i_k}; by the multiplication rule
of the rescaled Hecke basis this is left multiplication by
T~_{i_k} ... T~_{i_1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import coxeter
from .coxeter import GroupElement, GroupFamily

__all__ = [
    "Distribution",
    "Kernel",
    "average_start_chi_square",
    "check_reversible",
    "chi_square",
    "commutes_with_metropolis",
    "evolve",
    "evolve_scan",
    "kernel_power",
    "long_recipe",
    "long_scan_kernel",
    "metropolis_kernel",
    "point_mass",
    "random_scan_kernel",
    "scan_kernel",
    "short_recipe",
    "short_scan_kernel",
    "stationary",
    "trace_of_power",
    "tv_distance",
]


def _as_theta(theta) -> Fraction:
    theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    return theta


@dataclass
class Distribution:
    """Exact probability vector over the enumeration order of a family."""

    family: GroupFamily
    probs: np.ndarray  # object dtype, Fraction entries

    def __post_init__(self) -> None:
        total = sum(self.probs, Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability entry")


@dataclass
class Kernel:
    """Row-stochastic matrix num/den with integer num and shared den."""

    family: GroupFamily
    theta: Fraction
    num: np.ndarray  # object dtype, int entries
    den: int
    descriptor: tuple[int, ...] | str = field(default="")

    @property
    def matrix(self) -> np.ndarray:
        """Dense Fraction view (row-stochastic)."""
        n = self.num.shape[0]
        out = np.empty((n, n), dtype=object)
        for x in range(n):
            row = self.num[x]
            out[x] = [Fraction(int(v), self.den) for v in row]
        return out

    def row_distribution(self, x: int) -> Distribution:
        probs = np.array(
            [Fraction(int(v), self.den) for v in self.num[x]], dtype=object
        )
        return Distribution(self.family, probs)


@lru_cache(maxsize=None)
def _left_tables(family: GroupFamily):
    """Lengths plus, per generator, the index map of x -> s_i x and its up-mask."""
    elements = coxeter.enumerate(family)
    index = {w: k for k, w in zip(range(len(elements)), elements)}
    lengths = np.array([coxeter.length(w) for w in elements])
    perms = []
    ups = []
    for i in coxeter.generators(family):
        perm = np.array([index[coxeter.apply_generator(i, w)] for w in elements])
        perms.append(perm)
        ups.append(lengths[perm] > lengths)
    return elements, index, lengths, perms, ups


def element_index(family: GroupFamily, w: GroupElement) -> int:
    return _left_tables(family)[1][w]


def stationary(family: GroupFamily, theta) -> Distribution:
    """pi(w) = theta^{-length(w)} / P_W(1/theta), exactly."""
    theta = _as_theta(theta)
    q = 1 / theta
    norm = coxeter.poincare_polynomial(family, q)
    lengths = _left_tables(family)[2]
    probs = np.array([q ** int(l) / norm for l in lengths], dtype=object)
    return Distribution(family, probs)


def point_mass(family: GroupFamily, w: GroupElement) -> Distribution:
    probs = np.zeros(family.order, dtype=object)
    probs += Fraction(0)
    probs[element_index(family, w)] = Fraction(1)
    return Distribution(family, probs)


def metropolis_kernel(family: GroupFamily, i: int, theta) -> Kernel:
    """Single-generator Metropolis kernel K_i."""
    theta = _as_theta(theta)
    if i not in coxeter.generators(family):
        raise ValueError(f"generator index {i} out of range for {family}")
    _, _, _, perms, ups = _left_tables(family)
    perm, up = perms[i - 1], ups[i - 1]
    n = len(perm)
    a, b = theta.numerator, theta.denominator
    num = np.zeros((n, n), dtype=object)
    for x in range(n):
        if up[x]:
            num[x, perm[x]] = b
        else:
            num[x, perm[x]] = a
            num[x, x] = b - a
    return Kernel(family, theta, num, b, descriptor=(i,))


def _apply_letter_columns(num: np.ndarray, perm, up, a: int, b: int) -> np.ndarray:
    """Right-multiply num (over den) by K_i (over b); result is over den*b."""
    out = np.zeros_like(num)
    down = ~up
    # column z receives from y = s_i z, plus a holding term when z is a descent
    out[:, down] = num[:, perm[down]] * b + num[:, down] * (b - a)
    out[:, up] = num[:, perm[up]] * a
    return out


def _apply_letter_rows(num: np.ndarray, perm, up, a: int, b: int) -> np.ndarray:
    """Left-multiply num (over den) by K_i (over b); result is over den*b."""
    out = np.zeros_like(num)
    down = ~up
    out[up] = num[perm[up]] * b
    out[down] = num[perm[down]] * a + num[down] * (b - a)
    return out


def _check_scan(family: GroupFamily, scan) -> tuple[int, ...] | str:
    """A scan as :func:`_apply_scan` takes it: a validated recipe, or "random"."""
    if isinstance(scan, str):
        if scan != "random":
            raise ValueError(f'scan must be a recipe or "random", got {scan!r}')
        return scan
    recipe = tuple(scan)
    gens = coxeter.generators(family)
    for i in recipe:
        if i not in gens:
            raise ValueError(f"generator index {i} out of range for {family}")
    return recipe


def _apply_scan(family: GroupFamily, theta: Fraction, scan, block=None):
    """Right-multiply a row block by one pass of the scan kernel.

    Returns the new block and the factor by which its denominator grows:
    b per letter of a recipe, b*m for the random scan, which is the sum of
    the m one-letter images.  Without a block this is the kernel itself;
    for a recipe, the identity it starts from is dropped after the first
    letter rather than held by the caller for the whole pass.
    """
    if block is None:
        block = np.identity(family.order, dtype=object)
    _, _, _, perms, ups = _left_tables(family)
    a, b = theta.numerator, theta.denominator
    if scan == "random":
        out = np.zeros_like(block)
        for perm, up in zip(perms, ups):
            out += _apply_letter_columns(block, perm, up, a, b)
        return out, b * family.rank
    factor = 1
    for i in scan:
        block = _apply_letter_columns(block, perms[i - 1], ups[i - 1], a, b)
        factor *= b
    return block, factor


def scan_kernel(family: GroupFamily, theta, recipe) -> Kernel:
    """Systematic scan K_{i_1} K_{i_2} ... K_{i_k} for recipe (i_1, ..., i_k)."""
    theta = _as_theta(theta)
    recipe = _check_scan(family, tuple(recipe))
    num, den = _apply_scan(family, theta, recipe)
    return Kernel(family, theta, num, den, descriptor=recipe)


def short_recipe(family: GroupFamily) -> tuple[int, ...]:
    """The short scan: one palindromic sweep (1, ..., m, m, ..., 1)."""
    m = family.rank
    return tuple(range(1, m + 1)) + tuple(range(m, 0, -1))


def long_recipe(family: GroupFamily) -> tuple[int, ...]:
    """A scan whose kernel is left multiplication by T~_{w_0}^2.

    The element of the algebra is the T~-product along the *reversed*
    recipe, so any recipe whose reversal splits into two reduced words of
    w_0 works.  We use, per family:

    * symmetric, rank m: nested palindromic passes
      (m,...,1,1,...,m), (m-1,...,1,1,...,m-1), ..., (1,1); reversing
      gives the ascending passes whose product telescopes through the
      parabolic tower to the squared longest element.
    * hypercube: (1,...,n,n,...,1) -- the generators commute, so this is
      already the product of all T~_i^2.
    * dihedral: (1,2,1,2,...) with 2n letters -- two alternating reduced
      words of w_0 back to back.
    """
    m = family.rank
    if family.kind == "symmetric":
        recipe: list[int] = []
        for k in range(m, 0, -1):
            recipe.extend(range(k, 0, -1))
            recipe.extend(range(1, k + 1))
        return tuple(recipe)
    if family.kind == "hypercube":
        return short_recipe(family)
    return tuple(1 if j % 2 == 0 else 2 for j in range(2 * family.n))


def short_scan_kernel(family: GroupFamily, theta) -> Kernel:
    return scan_kernel(family, theta, short_recipe(family))


def long_scan_kernel(family: GroupFamily, theta) -> Kernel:
    return scan_kernel(family, theta, long_recipe(family))


def random_scan_kernel(family: GroupFamily, theta) -> Kernel:
    """Uniform mixture (1/rank) sum_i K_i."""
    theta = _as_theta(theta)
    num, den = _apply_scan(family, theta, "random")
    return Kernel(family, theta, num, den, descriptor="random")


def kernel_power(K: Kernel, m: int) -> Kernel:
    """K^m; scan kernels are rebuilt letter-by-letter, others multiplied out."""
    if m < 0:
        raise ValueError("negative power")
    n = K.num.shape[0]
    if m == 0:
        return Kernel(K.family, K.theta, np.identity(n, dtype=object), 1, "")
    if isinstance(K.descriptor, tuple) and K.descriptor:
        return scan_kernel(K.family, K.theta, K.descriptor * m)
    num = K.num
    for _ in range(m - 1):
        num = num @ K.num
    return Kernel(K.family, K.theta, num, K.den**m, K.descriptor)


def trace_of_power(K: Kernel, m: int) -> Fraction:
    Km = kernel_power(K, m)
    return Fraction(int(sum(Km.num.diagonal())), Km.den)


def evolve(K: Kernel, start: Distribution, ell: int) -> Distribution:
    """Exact distribution start * K^ell via repeated vector-matrix products."""
    if ell < 0:
        raise ValueError("negative step count")
    if start.family != K.family:
        raise ValueError("family mismatch")
    probs = start.probs
    for _ in range(ell):
        probs = (probs @ K.num) / K.den
    return Distribution(K.family, probs)


def evolve_scan(
    family: GroupFamily, theta, scan, start: Distribution, ell: int
) -> Distribution:
    """Exact distribution start * K^ell, one scan letter at a time.

    ``scan`` is a recipe (i_1, ..., i_k) or ``"random"``.  The start is
    held as one row of integer numerators over their common denominator
    and right-multiplied by each letter's K_i in turn, so a pass costs
    O(|W| * letters) and no |W| x |W| kernel is formed.  Equal by ``==``
    to ``evolve(scan_kernel(family, theta, scan), start, ell)`` (or
    :func:`random_scan_kernel` for the random scan).
    """
    if ell < 0:
        raise ValueError("negative step count")
    if start.family != family:
        raise ValueError("family mismatch")
    theta = _as_theta(theta)
    scan = _check_scan(family, scan)
    probs = [Fraction(p) for p in start.probs]
    den = math.lcm(*(p.denominator for p in probs))
    block = np.array(
        [[p.numerator * (den // p.denominator) for p in probs]], dtype=object
    )
    for _ in range(ell):
        block, factor = _apply_scan(family, theta, scan, block)
        den *= factor
    probs = np.array([Fraction(int(v), den) for v in block[0]], dtype=object)
    return Distribution(family, probs)


def tv_distance(p: Distribution, pi: Distribution) -> Fraction:
    """Total variation distance (half the L1 distance)."""
    if p.family != pi.family:
        raise ValueError("family mismatch")
    return sum((abs(a - b) for a, b in zip(p.probs, pi.probs)), Fraction(0)) / 2


def chi_square(p: Distribution, pi: Distribution) -> Fraction:
    """Chi-square divergence sum_x (p(x) - pi(x))^2 / pi(x)."""
    if p.family != pi.family:
        raise ValueError("family mismatch")
    if any(w == 0 for w in pi.probs):
        raise ValueError("reference distribution has a zero entry")
    return sum(((a - b) ** 2 / b for a, b in zip(p.probs, pi.probs)), Fraction(0))


def check_reversible(K: Kernel, pi: Distribution) -> bool:
    """Exact detailed-balance check pi(x) K(x,y) == pi(y) K(y,x)."""
    weighted = pi.probs[:, None] * K.num
    return bool((weighted == weighted.T).all())


def commutes_with_metropolis(K: Kernel, i: int) -> bool:
    """Exact check that K commutes with the generator kernel K_i."""
    _, _, _, perms, ups = _left_tables(K.family)
    perm, up = perms[i - 1], ups[i - 1]
    a, b = K.theta.numerator, K.theta.denominator
    right = _apply_letter_columns(K.num, perm, up, a, b)  # K * K_i
    left = _apply_letter_rows(K.num, perm, up, a, b)  # K_i * K
    return bool((left == right).all())


def average_start_chi_square(K: Kernel, ell: int) -> Fraction:
    """pi-weighted average over starts x of chi_square(delta_x K^ell, pi)."""
    pi = stationary(K.family, K.theta)
    Kl = kernel_power(K, ell)
    total = Fraction(0)
    for x in range(Kl.num.shape[0]):
        row = np.array(
            [Fraction(int(v), Kl.den) for v in Kl.num[x]], dtype=object
        )
        total += pi.probs[x] * chi_square(Distribution(K.family, row), pi)
    return total
