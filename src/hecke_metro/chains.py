"""Metropolis kernels and exact Markov-chain arithmetic on Coxeter groups.

The single-generator Metropolis kernel for the stationary law
pi(w) proportional to theta^{-length(w)} is

    K_i(x, s_i x) = 1          if length(s_i x) > length(x),
    K_i(x, s_i x) = theta      if length(s_i x) < length(x),
    K_i(x, x)     = 1 - theta  in the second case,

and systematic scans are matrix products of these.  All arithmetic is on
integers over a single shared denominator, so every identity check in
this module is exact.  One letter routine right-multiplies a row by K_i
at O(|W|): for theta = a/b a descent cell z of the row takes
``row[s] * b + row[z] * (b - a)`` and an ascent cell ``row[s] * a``, with
s = s_i z read off :func:`coxeter.action_tables`.

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
  K^m off each row; :func:`power_sums_with_crosses` also reads the
  pi-weighted cross sum of K^(m-1) and K^m.  Neither holds more than two
  levels each of two powers, never a |W| x |W| power;
* :func:`scan_kernel` and :func:`random_scan_kernel` apply it to every
  row of the identity, giving the dense |W| x |W| kernel (O(|W|^2)
  cells).  A single-generator kernel K_i is the scan of the one-letter
  recipe (i,); :func:`generator_rows` reads its rows, at most two
  nonzeros each, straight off the action tables instead.  Work on every
  start, dense or row by row, is refused before it begins when its
  |W|^2 cells exceed :func:`dense_cell_budget`.

A row is a list of Python ints over one denominator.  Python ints do not
overflow, so a row never changes representation however large its
denominator grows, and every reduction runs over one row at a time.

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
from operator import mul

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
    "generator_rows",
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

    ``num`` holds one integer numerator per element, ``den`` their one
    shared denominator; the pair need not be in lowest terms.
    """

    family: GroupFamily
    num: list[int]
    den: int

    def __post_init__(self) -> None:
        if len(self.num) != self.family.order:
            raise ValueError(
                f"{len(self.num)} numerators for the {self.family.order} elements of "
                f"{self.family}"
            )
        if min(self.num) < 0:
            raise ValueError("negative probability entry")
        total = sum(self.num)
        if self.den < 1 or total != self.den:
            raise ValueError(f"numerators sum to {total}, not the denominator {self.den}")

    @classmethod
    def of(cls, family: GroupFamily, probs) -> Distribution:
        """The distribution with exact probabilities ``probs``, over their lcm."""
        probs = [Fraction(p) for p in probs]
        den = math.lcm(*(p.denominator for p in probs))
        return cls(family, [p.numerator * (den // p.denominator) for p in probs], den)

    @property
    def probs(self) -> list[Fraction]:
        """Per-cell ``Fraction`` view."""
        return [Fraction(v, self.den) for v in self.num]


def _entries(row) -> list[tuple[int, int]]:
    """(column, numerator) of the nonzero entries of a dense or sparse row."""
    return [(y, v) for y, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v]


@dataclass
class Kernel:
    """Row-stochastic matrix num/den with integer num and shared den.

    ``num`` holds the rows, each a list of |W| numerators or, for a
    sparse row, a dict {column: numerator} of its nonzero entries.
    """

    family: GroupFamily
    theta: Fraction
    num: list
    den: int

    @property
    def matrix(self) -> list[list[Fraction]]:
        """Dense Fraction view (row-stochastic)."""
        out = []
        for row in self.num:
            dense = [Fraction(0)] * self.family.order
            for y, v in _entries(row):
                dense[y] = Fraction(v, self.den)
            out.append(dense)
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
    top = max(lengths)
    # q^l up to the common factor a^top, for l = 0..top
    weights = [b**l * a ** (top - l) for l in range(top + 1)]
    num = [weights[l] for l in lengths]
    return Distribution(family, num, sum(num))


def point_mass(family: GroupFamily, w: GroupElement) -> Distribution:
    num = [0] * family.order
    num[element_index(family, w)] = 1
    return Distribution(family, num, 1)


def generator_rows(family: GroupFamily, theta, i: int) -> list[dict[int, int]]:
    """The rows of K_i over theta's denominator b, each a dict of its nonzero
    entries, read straight off the action tables.

    For theta = a/b, row x moves b to s_i x when that lengthens x; otherwise
    it moves a to s_i x and keeps b - a on x (nothing at theta = 1).
    """
    theta = Fraction(coxeter.check_theta(theta))
    if i not in coxeter.generators(family):
        raise ValueError(f"generator index {i} out of range for {family}")
    a, b = theta.numerator, theta.denominator
    tables = coxeter.action_tables(family)
    perm, up = tables.perms[i - 1], tables.ups[i - 1]
    return [
        {y: b} if rises or a == b else {y: a, x: b - a}
        for x, (y, rises) in enumerate(zip(perm, up))
    ]


def _letter(row: list[int], perm: list[int], up: list[bool], a: int, b: int) -> list[int]:
    """``row``, over some den, times the matrix of a letter, over den*b: K_i
    for the tables of s_i w, or right multiplication by T~_i in the T~ basis
    for those of w s_i (:func:`_right_letters`).

    Cell z receives from s = perm[z]: a descent cell (not ``up[z]``) gets
    the move up from s plus its own holding term, an ascent cell the move
    down from s.
    """
    c = b - a
    return [
        moved * a if rises else moved * b + stay * c
        for moved, rises, stay in zip(map(row.__getitem__, perm), up, row)
    ]


@functools.lru_cache(maxsize=16)
def _right_letters(family: GroupFamily) -> tuple[tuple[list[int], list[bool]], ...]:
    """Per generator i, the tables of w -> w s_i: index and up-mask, which
    :func:`_letter` applies as right multiplication by T~_i.

    The right action is read off the left tables as ``inv[perm_i[inv[w]]]``,
    since w s_i = (s_i w^-1)^-1; ups are length(w s_i) > length(w).
    """
    tables = coxeter.action_tables(family)
    inv = [tables.index[coxeter.inverse(w)] for w in tables.elements]
    lengths = tables.lengths
    letters = []
    for perm in tables.perms:
        right = [inv[perm[inverse]] for inverse in inv]
        letters.append((right, [lengths[t] > l for t, l in zip(right, lengths)]))
    return tuple(letters)


@functools.lru_cache(maxsize=16)
def _length_levels(family: GroupFamily) -> tuple[tuple[list[int], list], ...]:
    """The elements by length, as (rows, steps) per length k = 0..L.

    ``rows`` lists the elements of length k, grouped by their first right
    descent i; ``steps`` gives per such i the positions, in level k - 1, of
    their parents x s_i, in the same order.  Level 0 is the identity alone.
    """
    lengths = coxeter.action_tables(family).lengths
    right = _right_letters(family)
    first = [family.rank] * family.order  # the first right descent
    for i in range(family.rank - 1, -1, -1):
        for z, rises in enumerate(right[i][1]):
            if not rises:
                first[z] = i
    top = max(lengths)
    groups = [[[] for _ in range(family.rank)] for _ in range(top + 1)]
    for z, (k, i) in enumerate(zip(lengths, first)):
        if k:
            groups[k][i].append(z)
    levels = [([lengths.index(0)], [])]
    position = [0] * family.order  # of each element in its level
    for k in range(1, top + 1):
        rows, steps = [], []
        for i, children in enumerate(groups[k]):
            if children:
                perm = right[i][0]
                steps.append((i, [position[perm[z]] for z in children]))
                rows.extend(children)
        for at, z in enumerate(rows):
            position[z] = at
        levels.append((rows, steps))
    return tuple(levels)


def _levels(family: GroupFamily, a: int, b: int, row: list[int]):
    """The rows of L(h) by length, from its identity row ``row``, the
    T~-coefficients of h over some den, for theta = a/b.

    Yields each level of :func:`_length_levels` in turn, a list of rows,
    level k over ``den * b^k``.  Left multiplication commutes with right
    multiplication, so row x, the coefficients of h T~_x, is row x s_i times
    T~_i; each level is made from the one before and replaces it.
    """
    right = _right_letters(family)
    level = [row]
    for k, (_, steps) in enumerate(_length_levels(family)):
        if k:
            level = [_letter(level[at], *right[i], a, b) for i, ats in steps for at in ats]
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


def _apply_scan(family: GroupFamily, theta: Fraction, scan, row: list[int], den: int):
    """Right-multiply ``row``, over ``den``, by one pass of the scan kernel.

    Returns the new row and its denominator: ``den`` times b per letter of
    a recipe, or times b*m for the random scan, which is the sum of the m
    one-letter images.
    """
    tables = coxeter.action_tables(family)
    a, b = theta.numerator, theta.denominator
    if scan == "random":
        images = [_letter(row, perm, up, a, b) for perm, up in zip(tables.perms, tables.ups)]
        return list(map(sum, zip(*images))), den * b * family.rank
    for i in scan:
        row = _letter(row, tables.perms[i - 1], tables.ups[i - 1], a, b)
    return row, den * b ** len(scan)


def _kernel(family: GroupFamily, theta, scan) -> Kernel:
    """The scan's dense kernel: every row of the identity through one pass."""
    theta = Fraction(coxeter.check_theta(theta))
    scan = _check_scan(family, scan)
    check_dense_cells(family)
    rows, den = [], 1
    for x in range(family.order):
        unit = [0] * family.order
        unit[x] = 1
        row, den = _apply_scan(family, theta, scan, unit, 1)
        rows.append(row)
    return Kernel(family, theta, rows, den)


def scan_kernel(family: GroupFamily, theta, recipe) -> Kernel:
    """Systematic scan K_{i_1} K_{i_2} ... K_{i_k} for recipe (i_1, ..., i_k)."""
    return _kernel(family, theta, tuple(recipe))


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
    return _kernel(family, theta, "random")


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
    row, den = start.num, start.den
    for _ in range(ell):
        row, den = _apply_scan(family, theta, scan, row, den)
    return Distribution(family, list(row), den)


def tv_distance(p: Distribution, pi: Distribution) -> Fraction:
    """Total variation distance (half the L1 distance)."""
    if p.family != pi.family:
        raise ValueError("family mismatch")
    dp, dq = p.den, pi.den
    # over the common denominator dp * dq
    return Fraction(sum(abs(P * dq - Q * dp) for P, Q in zip(p.num, pi.num)), 2 * dp * dq)


def chi_square(p: Distribution, pi: Distribution) -> Fraction:
    """Chi-square divergence sum_x (p(x) - pi(x))^2 / pi(x)."""
    if p.family != pi.family:
        raise ValueError("family mismatch")
    dp, dq = p.den, pi.den
    if not all(pi.num):
        raise ValueError("reference distribution has a zero entry")
    # (p - pi)^2 / pi = (P dq - Q dp)^2 / (dp^2 dq Q), over lcm(Q) = M
    M = math.lcm(*pi.num)
    total = sum((P * dq - Q * dp) ** 2 * (M // Q) for P, Q in zip(p.num, pi.num))
    return Fraction(total, dp * dp * dq * M)


def check_reversible(K: Kernel, pi: Distribution) -> bool:
    """Exact detailed-balance check pi(x) K(x,y) == pi(y) K(y,x), over the
    nonzero entries of the rows of K, dense or sparse."""
    v = pi.num
    rows = [dict(_entries(row)) for row in K.num]
    return all(
        v[x] * value == v[y] * rows[y].get(x, 0)
        for x, row in enumerate(rows)
        for y, value in row.items()
    )


def check_stationary(K: Kernel, pi: Distribution) -> bool:
    """Exact check that pi K == pi, over the nonzero entries of the rows of K."""
    flow = [0] * len(pi.num)
    for weight, row in zip(pi.num, K.num):
        for y, value in _entries(row):
            flow[y] += weight * value
    return all(f == v * K.den for f, v in zip(flow, pi.num))


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
    times those of K^(m-1), swept again beside it, to the cross sum, row
    by row, each level lifted by b^(L - k) onto d_m b^L.  At most two
    levels each of K^(m-1) and K^m are held.  Both
    weighted sums are
    <A, B>_pi = sum_{x,y} (pi(x) / pi(y)) A[x,y] B[x,y]; the averaged
    chi-square sum_x pi(x) chi_square(delta_x K^m, pi) is <K^m, K^m>_pi - 1.
    With pi(x) proportional to its numerator v_x = b^len(x) a^(L - len(x))
    in :func:`stationary`, for theta = a/b and L the longest length,
    pi(x) / pi(y) = v_x u_y / (ab)^L where u_y = a^len(y) b^(L - len(y)).  So
    on integer numerators A over d_A and B over d_B,

        <A, B>_pi = sum_x v_x sum_y A[x,y] B[x,y] u_y / ((ab)^L d_A d_B),

    and since u_y depends on len(y) alone, each row sums its products by
    length before it meets the large weights; v_x is shared by a level.

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
    top = max(lengths)
    # a row read in this order has the columns of each length in one slice;
    # every length 0..top occurs
    by_length = sorted(range(family.order), key=lengths.__getitem__)
    counts = [0] * (top + 1)
    for length in lengths:
        counts[length] += 1
    ends = [0, *itertools.accumulate(counts)]
    slices = [(a**k * b ** (top - k), ends[k], ends[k + 1]) for k in range(top + 1)]

    def weighted(A: list[int], B: list[int]) -> int:
        """sum_y A[y] B[y] u_y."""
        products = list(map(mul, map(A.__getitem__, by_length), map(B.__getitem__, by_length)))
        return sum(u * sum(products[lo:hi]) for u, lo, hi in slices)

    levels = _length_levels(family)
    # the identity row of K^m, e K^m over dens[m], is level 0 of K^m
    row = [0] * family.order
    row[levels[0][0][0]] = 1
    identity_rows, dens = [row], [1]
    for m in range(passes):
        row, den = _apply_scan(family, theta, scan, row, dens[m])
        identity_rows.append(row)
        dens.append(den)
    scale = (a * b) ** top
    sums = []
    for m in range(1, passes + 1):
        # K^(m-1) is swept again beside K^m for the cross sum, so that two
        # powers at most are held, whatever the number of passes
        current_levels = _levels(family, a, b, identity_rows[m])
        previous_levels = (
            _levels(family, a, b, identity_rows[m - 1])
            if crosses and m > 1
            else itertools.repeat(None)
        )
        trace = square = cross = 0
        for k, ((rows, _), current, previous) in enumerate(
            zip(levels, current_levels, previous_levels)
        ):
            # level k is over dens[m] * b^k; b^(top - k) lifts its sums onto
            # dens[m] * b^top, and its rows x share v_x = b^k a^(top - k)
            lift = b ** (top - k)
            weight = b**k * a ** (top - k) * lift * lift
            trace += sum(map(list.__getitem__, current, rows)) * lift
            square += sum(weighted(A, A) for A in current) * weight
            if previous is not None:
                cross += sum(map(weighted, previous, current)) * weight
        den = dens[m] * b**top
        entry = (Fraction(trace, den), Fraction(square, scale * den**2) - 1)
        if crosses:
            # <K^0, K>_pi = sum_x K[x,x] = tr(K), since pi(x) / pi(x) = 1
            entry += (
                entry[0] if m == 1 else Fraction(cross, scale * dens[m - 1] * b**top * den),
            )
        sums.append(entry)
    return sums
