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
* :func:`power_sums` applies it to the identity row alone, giving
  e K^m at O(|W| * letters) a pass, and derives every other row of K^m
  from that one.  K is left multiplication L(h) by an element h of the
  algebra (see below), and left multiplication commutes with right
  multiplication, so row x of K^m, the T~-coefficients of h^m T~_x, is
  row x s_i times T~_i for a right descent i of x.  The same letter
  routine applies right multiplication by T~_i, on right-action columns,
  one length level at a time, so a pass costs O(|W|^2) whatever the
  number of letters.  It reads tr(K^m) and the pi-averaged chi-square of
  K^m off each level; :func:`power_sums_with_crosses` also reads the
  pi-weighted cross sum of K^(m-1) and K^m.  Neither holds more than two
  levels each of two powers, never a |W| x |W| power;
* :func:`scan_kernel` and :func:`random_scan_kernel` apply it to the
  whole identity, giving the dense |W| x |W| kernel (O(|W|^2) cells).  A
  single-generator kernel K_i is the scan of the one-letter recipe (i,).
  Work on every start, dense or row by row, is refused before it begins
  when its |W|^2 cells exceed :func:`dense_cell_budget`.

A block of rows over one denominator ``den`` has no negative entry and
every row sums to ``den``, so no entry exceeds it, and after a letter over
b none exceeds ``den * b`` (``den * b * m`` after a random-scan pass, the
sum of m letters).  So a block is held as ``np.int64`` while that product
fits, and moved to Python ints (object dtype) just before a letter or a
random-scan pass would take it past 2^63 - 1; one letter routine serves
both.  A length-k level of K^m over ``den``, the identity row's
denominator, is over ``den * b^k``, which is again its row sum, so the same
rule holds level by level.  Every reduction, and every :class:`Kernel` or
:class:`Distribution` that leaves this module, is on Python ints.

A :class:`Distribution` is held the same way, as integer numerators
``num`` over one denominator ``den``; :meth:`Distribution.of` is the one
place exact probabilities become numerators.  The reductions
(:func:`chi_square`, :func:`tv_distance`, :func:`power_sums`,
:func:`check_reversible`, :func:`check_stationary`) work on ``num`` and
``den`` directly; each builds one ``Fraction`` per result.

The scan recipe (i_1, ..., i_k) applies K_{i_1} first, i.e. the kernel is
the matrix product K_{i_1} K_{i_2} ... K_{i_k}; by the multiplication rule
of the rescaled Hecke basis this is left multiplication by
T~_{i_k} ... T~_{i_1}, and the random scan is left multiplication by
(T~_1 + ... + T~_m) / m.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coxeter
from .coxeter import CapExceededError, GroupElement, GroupFamily

__all__ = [
    "Distribution",
    "Kernel",
    "check_dense_cells",
    "check_reversible",
    "check_stationary",
    "chi_square",
    "dense_cell_budget",
    "evolve_scan",
    "long_recipe",
    "long_scan_kernel",
    "point_mass",
    "power_sums",
    "power_sums_with_crosses",
    "random_scan_kernel",
    "scan_kernel",
    "short_recipe",
    "short_scan_kernel",
    "stationary",
    "tv_distance",
]


# Work on every start (a dense |W| x |W| kernel, or the |W| rows of each
# power that power_sums derives) may cover this many cells per element that the
# enumeration cap admits: 10^6 cells at the default cap, which admits the
# symmetric group S_6 (518400 cells) and refuses S_7 (25.4 million).
DENSE_CELLS_PER_ELEMENT = 20

# Cells of a level that power_sums reduces at once.  On a 2-core host the
# time did not depend on it from 2^10 cells to whole levels (S_6, hypercube(8),
# dihedral(60)); the traced peak did: 1.7 MiB up to 2^14 cells and 2.5 MiB
# with whole levels for one short-scan pass on S_6, 1.9 and 2.7 MiB for two
# long-scan passes on hypercube(8), where the levels themselves are small.
BLOCK_CELLS = 1 << 12

# The largest row sum a block may keep in int64 (see _apply_scan).
INT64_MAX = int(np.iinfo(np.int64).max)


def dense_cell_budget() -> int:
    """Cells work on every start may cover: DENSE_CELLS_PER_ELEMENT x HECKE_METRO_CAP."""
    return DENSE_CELLS_PER_ELEMENT * coxeter.enumeration_cap()


def check_dense_cells(family: GroupFamily) -> None:
    """Refuse, before it begins, work on every start over the cell budget."""
    cells, budget = family.order**2, dense_cell_budget()
    if cells > budget:
        raise CapExceededError(
            f"work on every start of {family} covers |W|^2 = {cells} cells, over the "
            f"budget of {budget} cells ({DENSE_CELLS_PER_ELEMENT} per element of "
            f"the enumeration cap {coxeter.enumeration_cap()}; raise "
            "HECKE_METRO_CAP to allow it)"
        )


@dataclass
class Distribution:
    """Exact probability vector num/den over the enumeration order of a family.

    ``num`` holds integer numerators, ``den`` their one shared denominator;
    the pair need not be in lowest terms.
    """

    family: GroupFamily
    num: np.ndarray  # object dtype, int entries
    den: int

    def __post_init__(self) -> None:
        if (self.num < 0).any():
            raise ValueError("negative probability entry")
        total = self.num.sum()
        if self.den < 1 or total != self.den:
            raise ValueError(f"numerators sum to {total}, not the denominator {self.den}")

    @classmethod
    def of(cls, family: GroupFamily, probs) -> Distribution:
        """The distribution with exact probabilities ``probs``, over their lcm."""
        probs = [Fraction(p) for p in probs]
        den = math.lcm(*(p.denominator for p in probs))
        num = [p.numerator * (den // p.denominator) for p in probs]
        return cls(family, np.array(num, dtype=object), den)

    @property
    def probs(self) -> np.ndarray:
        """Per-cell ``Fraction`` view (object dtype)."""
        return np.array([Fraction(int(v), self.den) for v in self.num], dtype=object)


@dataclass
class Kernel:
    """Row-stochastic matrix num/den with integer num and shared den."""

    family: GroupFamily
    theta: Fraction
    num: np.ndarray  # object dtype, int entries
    den: int

    @property
    def matrix(self) -> np.ndarray:
        """Dense Fraction view (row-stochastic)."""
        n = self.num.shape[0]
        out = np.empty((n, n), dtype=object)
        for x in range(n):
            row = self.num[x]
            out[x] = [Fraction(int(v), self.den) for v in row]
        return out


def element_index(family: GroupFamily, w: GroupElement) -> int:
    return coxeter.action_tables(family).index[w]


def stationary(family: GroupFamily, theta) -> Distribution:
    """pi(w) = theta^{-length(w)} / P_W(1/theta), exactly.

    For theta = a/b and L the longest length, the numerator of w is
    b^length(w) a^(L - length(w)), never reduced; :func:`power_sums` relies
    on that form.
    """
    theta = Fraction(coxeter.check_theta(theta))
    a, b = theta.numerator, theta.denominator
    lengths = coxeter.action_tables(family).lengths
    top = int(lengths.max())
    # q^l up to the common factor a^top, for l = 0..top
    weights = [b**l * a ** (top - l) for l in range(top + 1)]
    norm = sum(int(c) * w for c, w in zip(np.bincount(lengths), weights))
    return Distribution(family, np.array(weights, dtype=object)[lengths], norm)


def point_mass(family: GroupFamily, w: GroupElement) -> Distribution:
    num = np.zeros(family.order, dtype=object)
    num[element_index(family, w)] = 1
    return Distribution(family, num, 1)


def _columns(perm: np.ndarray, up: np.ndarray) -> tuple:
    """The descent columns z (not ``up[z]``), their sources ``perm[z]``, the
    ascent columns and theirs, as index arrays."""
    down, rise = np.flatnonzero(~up), np.flatnonzero(up)
    return down, perm[down], rise, perm[rise]


@functools.lru_cache(maxsize=16)
def _letter_columns(family: GroupFamily) -> tuple:
    """Per generator i, the columns of K_i: descents are length(s_i z) < length(z)."""
    tables = coxeter.action_tables(family)
    return tuple(_columns(perm, up) for perm, up in zip(tables.perms, tables.ups))


@functools.lru_cache(maxsize=16)
def _right_letter_columns(family: GroupFamily) -> tuple:
    """Per generator i, the columns of right multiplication by T~_i in the T~
    basis, which :func:`_apply_letter_columns` applies as it applies K_i.

    The right action w -> w s_i is read off the left tables as
    ``inv[perm_i[inv]]``, since w s_i = (s_i w^-1)^-1; descents are
    length(z s_i) < length(z).
    """
    tables = coxeter.action_tables(family)
    inv = np.array([tables.index[coxeter.inverse(w)] for w in tables.elements])
    rights = [inv[perm[inv]] for perm in tables.perms]
    return tuple(_columns(right, tables.lengths[right] > tables.lengths) for right in rights)


@functools.lru_cache(maxsize=16)
def _length_levels(family: GroupFamily) -> tuple:
    """The elements by length, as (rows, steps) per length k = 0..L.

    ``rows`` lists the elements of length k, grouped by their first right
    descent i; ``steps`` gives per such i the positions, in level k - 1, of
    their parents x s_i, in the same order.  Level 0 is the identity alone.
    """
    lengths = coxeter.action_tables(family).lengths
    right = _right_letter_columns(family)
    first = np.full(family.order, family.rank)  # the first right descent
    for i in range(family.rank - 1, -1, -1):
        first[right[i][0]] = i
    rows = np.flatnonzero(lengths == 0)
    levels = [(rows, [])]
    position = np.empty(family.order, dtype=np.intp)  # of each row in its level
    position[rows] = 0
    for k in range(1, int(lengths.max()) + 1):
        children, steps = [], []
        for i, (down, parent, _, _) in enumerate(right):
            keep = (lengths[down] == k) & (first[down] == i)
            if keep.any():
                children.append(down[keep])
                steps.append((i, position[parent[keep]]))
        rows = np.concatenate(children)
        position[rows] = np.arange(len(rows))
        levels.append((rows, steps))
    return tuple(levels)


def _apply_letter_columns(num: np.ndarray, letter, a: int, b: int) -> np.ndarray:
    """Right-multiply num (over den) by the matrix of ``letter``, over b: K_i
    from :func:`_letter_columns`, or right multiplication by T~_i from
    :func:`_right_letter_columns`.  The result is over den*b."""
    down, from_down, rise, from_rise = letter
    out = np.empty_like(num)
    # a descent column z receives the move up from s_i z plus its holding term
    out[:, down] = np.take(num, from_down, axis=1) * b + np.take(num, down, axis=1) * (b - a)
    out[:, rise] = np.take(num, from_rise, axis=1) * a
    return out


def _levels(family: GroupFamily, a: int, b: int, row: np.ndarray, den: int):
    """The rows of L(h) by length, from its identity row ``row``, the
    T~-coefficients of h over ``den``, for theta = a/b.

    Yields each level of :func:`_length_levels` in turn, level k over
    ``den * b^k``.  Left multiplication commutes with right multiplication,
    so row x, the coefficients of h T~_x, is row x s_i times T~_i; each
    level is made from the one before and replaces it.
    """
    right = _right_letter_columns(family)
    level = row
    for k, (_, steps) in enumerate(_length_levels(family)):
        if k:
            level = _fit(level, den * b ** (k - 1), b)
            level = np.concatenate(
                [_apply_letter_columns(level[at], right[i], a, b) for i, at in steps]
            )
        yield level


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


def _fit(block: np.ndarray, den: int, factor: int) -> np.ndarray:
    """``block``, moved to Python ints if its row sum ``den`` times ``factor`` would
    pass the int64 range."""
    if block.dtype != object and den * factor > INT64_MAX:
        return block.astype(object)
    return block


def _exact(block: np.ndarray) -> np.ndarray:
    """``block`` as Python ints (object dtype), for reductions and results."""
    return block if block.dtype == object else block.astype(object)


def _apply_scan(family: GroupFamily, theta: Fraction, scan, block=None, den: int = 1):
    """Right-multiply a row block over ``den`` by one pass of the scan kernel.

    Every row of the block sums to ``den`` and no entry is negative.
    Returns the new block and its denominator: ``den`` times b per letter
    of a recipe, or times b*m for the random scan, which is the sum of the
    m one-letter images.  An int64 block is moved to Python ints just
    before a letter (or a random-scan pass) would take that row sum past
    int64 (see the module docstring).  Without a block this is the kernel
    itself; for a recipe, the identity it starts from is dropped after the
    first letter rather than held by the caller for the whole pass.
    """
    if block is None:
        check_dense_cells(family)
        block = np.identity(family.order, dtype=np.int64)
    a, b = theta.numerator, theta.denominator
    if scan == "random":
        factor = b * family.rank
        block = _fit(block, den, factor)
        out = np.zeros_like(block)
        for letter in _letter_columns(family):
            out += _apply_letter_columns(block, letter, a, b)
        return out, den * factor
    for i in scan:
        block = _fit(block, den, b)
        block = _apply_letter_columns(block, _letter_columns(family)[i - 1], a, b)
        den *= b
    return block, den


def scan_kernel(family: GroupFamily, theta, recipe) -> Kernel:
    """Systematic scan K_{i_1} K_{i_2} ... K_{i_k} for recipe (i_1, ..., i_k)."""
    theta = Fraction(coxeter.check_theta(theta))
    recipe = _check_scan(family, tuple(recipe))
    num, den = _apply_scan(family, theta, recipe)
    return Kernel(family, theta, _exact(num), den)


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
    theta = Fraction(coxeter.check_theta(theta))
    num, den = _apply_scan(family, theta, "random")
    return Kernel(family, theta, _exact(num), den)


def evolve_scan(
    family: GroupFamily, theta, scan, start: Distribution, ell: int
) -> Distribution:
    """Exact distribution start * K^ell, one scan letter at a time.

    ``scan`` is a recipe (i_1, ..., i_k) or ``"random"``.  The start is
    held as one row of its integer numerators over its denominator and
    right-multiplied by each letter's K_i in turn, so a pass costs
    O(|W| * letters) and no |W| x |W| kernel is formed.  Equal by ``==``
    to ``start`` times the ell-th power of :func:`scan_kernel` (or of
    :func:`random_scan_kernel` for the random scan).
    """
    if ell < 0:
        raise ValueError("negative step count")
    if start.family != family:
        raise ValueError("family mismatch")
    theta = Fraction(coxeter.check_theta(theta))
    scan = _check_scan(family, scan)
    block, den = start.num[None, :], start.den
    if den <= INT64_MAX:
        block = block.astype(np.int64)
    for _ in range(ell):
        block, den = _apply_scan(family, theta, scan, block, den)
    return Distribution(family, _exact(block[0]), den)


def tv_distance(p: Distribution, pi: Distribution) -> Fraction:
    """Total variation distance (half the L1 distance)."""
    if p.family != pi.family:
        raise ValueError("family mismatch")
    P, dp, Q, dq = p.num, p.den, pi.num, pi.den
    # over the common denominator dp * dq
    return Fraction(int(np.abs(P * dq - Q * dp).sum()), 2 * dp * dq)


def chi_square(p: Distribution, pi: Distribution) -> Fraction:
    """Chi-square divergence sum_x (p(x) - pi(x))^2 / pi(x)."""
    if p.family != pi.family:
        raise ValueError("family mismatch")
    P, dp, Q, dq = p.num, p.den, pi.num, pi.den
    if not Q.all():
        raise ValueError("reference distribution has a zero entry")
    # (p - pi)^2 / pi = (P dq - Q dp)^2 / (dp^2 dq Q), over lcm(Q) = M
    M = math.lcm(*Q)
    diff = P * dq - Q * dp
    return Fraction(int((diff * diff * (M // Q)).sum()), dp * dp * dq * M)


def check_reversible(K: Kernel, pi: Distribution) -> bool:
    """Exact detailed-balance check pi(x) K(x,y) == pi(y) K(y,x)."""
    weighted = pi.num[:, None] * K.num
    return bool((weighted == weighted.T).all())


def check_stationary(K: Kernel, pi: Distribution) -> bool:
    """Exact check that pi K == pi."""
    return bool((pi.num @ K.num == pi.num * K.den).all())


def power_sums(
    family: GroupFamily, theta, scan, passes: int
) -> list[tuple[Fraction, Fraction]]:
    """(tr(K^m), averaged chi-square of K^m) for m = 1..passes.

    :func:`power_sums_with_crosses` without the cross sums, whose second
    reduction per level and power it skips.
    """
    return _power_sums(family, theta, scan, passes, crosses=False)


def power_sums_with_crosses(
    family: GroupFamily, theta, scan, passes: int
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(tr(K^m), averaged chi-square of K^m, <K^(m-1), K^m>_pi) for m = 1..passes.

    ``scan`` is a recipe or ``"random"``, as :func:`evolve_scan` takes it,
    and K its kernel, which is L(h) for any scan (see the module
    docstring).  Only the identity row runs through the scan letters, pass
    by pass, giving e K^m over d_m.  The other rows follow one length level
    at a time: row x of K^m is row x s_i of K^m times T~_i, for i the first
    right descent of x, so level k is over d_m b^k.  Each level of K^m adds
    its diagonal to tr(K^m), its squared rows to the average and its rows
    times those of K^(m-1), swept again beside it, to the cross sum, in
    chunks of at most ``BLOCK_CELLS`` cells, each lifted by b^(L - k) onto
    d_m b^L.  At most two levels each of K^(m-1) and K^m are held.  Both
    weighted sums are
    <A, B>_pi = sum_{x,y} (pi(x) / pi(y)) A[x,y] B[x,y]; the averaged
    chi-square sum_x pi(x) chi_square(delta_x K^m, pi) is <K^m, K^m>_pi - 1.
    With pi(x) proportional to its numerator v_x = b^len(x) a^(L - len(x))
    in :func:`stationary`, for theta = a/b and L the longest length,
    pi(x) / pi(y) = v_x u_y / (ab)^L where u_y = a^len(y) b^(L - len(y)).  So
    on integer numerators A over d_A and B over d_B,

        <A, B>_pi = sum_x v_x sum_y A[x,y] B[x,y] u_y / ((ab)^L d_A d_B),

    and since u_y depends on len(y) alone, each row sums its products by
    length before it meets the large weights.

    When K is pi-reversible, pi(x) K^k(x,y) = pi(y) K^k(y,x), so
    <K^j, K^k>_pi = tr(K^(j+k)): the cross sum of pass m is tr(K^(2m-1)),
    and the averaged chi-square of pass m is tr(K^(2m)) - 1.
    """
    return _power_sums(family, theta, scan, passes, crosses=True)


def _power_sums(family: GroupFamily, theta, scan, passes: int, crosses: bool) -> list[tuple]:
    """:func:`power_sums_with_crosses`, or :func:`power_sums` unless ``crosses``."""
    if passes < 1:
        raise ValueError("need passes >= 1")
    theta = Fraction(coxeter.check_theta(theta))
    scan = _check_scan(family, scan)
    check_dense_cells(family)
    a, b = theta.numerator, theta.denominator
    lengths = coxeter.action_tables(family).lengths
    top = int(lengths.max())
    v = stationary(family, theta).num
    u = np.array([a**k * b ** (top - k) for k in range(top + 1)], dtype=object)
    # columns grouped by length; every length 0..top occurs
    by_length = np.argsort(lengths, kind="stable")
    starts = np.searchsorted(lengths[by_length], np.arange(top + 1))

    def weighted(rows, A, B) -> int:
        """sum_x v_x sum_y A[x,y] B[x,y] u_y over the chunk's rows x."""
        per_length = np.add.reduceat((A * B)[:, by_length], starts, axis=1)
        return v[rows] @ (per_length @ u)

    levels = _length_levels(family)
    # the identity row of K^m, e K^m over dens[m], is level 0 of K^m
    identity_rows = [np.zeros((1, family.order), dtype=np.int64)]
    identity_rows[0][0, levels[0][0]] = 1
    dens = [1]
    for m in range(passes):
        row, den = _apply_scan(family, theta, scan, identity_rows[m], dens[m])
        identity_rows.append(row)
        dens.append(den)
    height = max(1, BLOCK_CELLS // family.order)
    scale = (a * b) ** top
    sums = []
    for m in range(1, passes + 1):
        # K^(m-1) is swept again beside K^m for the cross sum, so that two
        # powers at most are held, whatever the number of passes
        current_levels = _levels(family, a, b, identity_rows[m], dens[m])
        previous_levels = (
            _levels(family, a, b, identity_rows[m - 1], dens[m - 1])
            if crosses and m > 1
            else itertools.repeat(None)
        )
        trace = square = cross = 0
        for k, ((rows, _), current_level, previous_level) in enumerate(
            zip(levels, current_levels, previous_levels)
        ):
            # level k is over dens[m] * b^k; b^(top - k) lifts its sums
            # onto dens[m] * b^top
            lift = b ** (top - k)
            for first in range(0, len(rows), height):
                chunk = slice(first, first + height)
                current = _exact(current_level[chunk])
                trace += current[np.arange(len(current)), rows[chunk]].sum() * lift
                square += weighted(rows[chunk], current, current) * lift**2
                if previous_level is not None:
                    previous = _exact(previous_level[chunk])
                    cross += weighted(rows[chunk], previous, current) * lift**2
        den = dens[m] * b**top
        entry = (Fraction(int(trace), den), Fraction(int(square), scale * den**2) - 1)
        if crosses:
            # <K^0, K>_pi = sum_x K[x,x] = tr(K), since pi(x) / pi(x) = 1
            entry += (
                entry[0]
                if m == 1
                else Fraction(int(cross), scale * dens[m - 1] * b**top * den),
            )
        sums.append(entry)
    return sums
