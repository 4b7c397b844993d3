"""Irreducible-representation data and closed-form convergence rates.

For each of the three built-in families the deformed group algebra has one
irreducible block per label ``lam``, with three attached constants:

* ``d``        -- the dimension of the block,
* ``c``        -- the eigenvalue constant of the central element (the sum of
                  all reflections acts by ``c`` on the block),
* ``t_of_q``   -- the generic degree, a function of ``q`` normalised so that
                  ``sum d*t(q) = P_W(q)`` (the length generating polynomial).

With ``theta = 1/q`` these constants give closed forms for the chi-square
distance of scan chains to the stationary measure ``pi``:

* long systematic scan, started at the identity:
      ``sum_{lam != triv} t_lam d_lam theta^(2l (L - c_lam))``
  where ``L`` is the length of the longest element;
* pi-averaged over starting points, ``t_lam d_lam`` becomes ``d_lam^2``;
  for a pi-reversible scan that is ``tr(K^(2l)) - 1``, so each scan has one
  power sum ``tr(K^m) - 1`` over the nontrivial blocks, read by its
  averaged form and its trace;
* short systematic scan on the symmetric group: the exponent is controlled
  by the content of the box containing ``n``, so the sum over standard
  tableaux collapses by the branching rule to a sum over the removable
  corners of each partition, the corner weighted by the number of tableaux
  of the smaller shape;
* single-site random scans admit eigenvalue forms on the hypercube
  (exact, via binomial grouping) and the dihedral family (floating point,
  the eigenvalues involve cosines).

The symmetric forms are evaluated at partition scale: one cached table per
``n`` holds each partition's dimension, content sum, sub-diagonal shift
and hooks, and every call builds the q-integers ``[k]_q`` (k <= n) once,
so a generic degree costs one product over the hooks (the q-hook formula).
Nothing enumerates tableaux, so no enumeration cap applies to these forms;
:func:`standard_tableaux` remains as the reference the tests compare with.
On the hypercube every block is one-dimensional, so the long-scan sums
factor over the coordinates into products of ``n`` binomials.

Everything downstream of a rational ``theta`` is exact `Fraction` arithmetic
except where irrational eigenvalues force floats (dihedral random scan and
the two-dimensional dihedral generic degrees); aggregate sums over the
dihedral labels are still computed exactly, in rationals, from the
Poisson-kernel sum over the nontrivial roots of unity.  The ``bound_*``
functions evaluate the classical explicit upper bounds (log-domain where
factorials would overflow).  :func:`closed_form` is the one dispatch from
a (family, scan) pair to its chi-square form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .coxeter import (
    CapExceededError,
    GroupElement,
    GroupFamily,
    check_order,
    check_q,
    check_theta,
    enumeration_cap,
    hypercube,
    identity,
)

__all__ = [
    "IrrepData",
    "StandardTableau",
    "partitions",
    "standard_tableaux",
    "content_of_n_box",
    "irreps",
    "sum_d_t",
    "long_scan_chisq",
    "long_scan_avg_chisq",
    "long_scan_trace",
    "short_scan_chisq_symmetric",
    "short_scan_trace_symmetric",
    "random_scan_chisq_hypercube",
    "dihedral_random_scan_chisq",
    "closed_form",
    "bound_theorem_1_4",
    "bound_hypercube",
    "bound_symmetric_scans",
    "bound_dihedral_random_scan",
    "bound_dihedral_long_scan",
    "LeadConstantRow",
    "lead_constant_table",
]


# --------------------------------------------------------------------------
# partitions and tableaux

Partition = tuple[int, ...]


def partitions(n: int) -> list[Partition]:
    """All partitions of ``n`` as weakly decreasing tuples, descending lex.

    >>> partitions(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, largest: int) -> Iterable[Partition]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return list(gen(n, n))


def _check_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(int(p) for p in lam)
    if not lam or any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam!r}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam!r}")
    return lam


def _hooks(lam: Partition) -> tuple[int, ...]:
    # hook lengths row-major, from one conjugate
    cols = [0] * (lam[0] if lam else 0)
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(
        part - j + cols[j] - i - 1 for i, part in enumerate(lam) for j in range(part)
    )


@dataclass(frozen=True)
class StandardTableau:
    """A filling of a partition's boxes with ``1..n``, increasing along
    rows (left to right) and columns (top to bottom)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        shape = tuple(len(r) for r in self.rows)
        _check_partition(shape)
        entries = [x for row in self.rows for x in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError("entries must be exactly 1..n")
        for row in self.rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("rows must increase left to right")
        for i in range(len(self.rows) - 1):
            upper, lower = self.rows[i], self.rows[i + 1]
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise ValueError("columns must increase top to bottom")

    @property
    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)


def _tableau_fillings(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """The row fillings of every standard tableau of shape ``lam``, grown one
    entry at a time: the fillings with 1..m of each shape of m boxes inside
    ``lam``, each extended by m + 1 in every box that can take it."""
    level: dict[Partition, list] = {(): [()]}
    for m in range(1, sum(lam) + 1):
        grown: dict[Partition, list] = {}
        for shape, fillings in level.items():
            for i in range(min(len(shape) + 1, len(lam))):
                part = shape[i] if i < len(shape) else 0
                if part == lam[i] or (i > 0 and shape[i - 1] == part):
                    continue  # row i is full, or adding would overtake row i - 1
                bigger = shape[:i] + (part + 1,) + shape[i + 1 :]
                grown.setdefault(bigger, []).extend(
                    rows[:i] + (rows[i] + (m,) if i < len(rows) else (m,),) + rows[i + 1 :]
                    for rows in fillings
                )
        level = grown
    return level[lam]


def standard_tableaux(lam: Sequence[int]) -> list[StandardTableau]:
    """Enumerate every standard tableau of the given shape.

    A shape with more tableaux than the enumeration cap is refused with
    :class:`CapExceededError` before n! or a count past the cap is formed.
    With the hooks sorted, the k-th is at most k, by induction on n: the
    hooks of ``lam`` are a 1, at a corner, and those of ``lam`` without that
    corner, each raised by at most 1.  So the count n! / prod(hooks) is the
    product of the factors k / h_(k) >= 1, and each partial product bounds
    it from below.
    """
    lam = _check_partition(lam)
    cap, count = enumeration_cap(), Fraction(1)
    for k, hook in zip(range(1, sum(lam) + 1), sorted(_hooks(lam))):
        count *= Fraction(k, hook)
        if count > cap:
            raise CapExceededError(
                f"shape {lam} has at least {math.ceil(count)} standard tableaux (cap {cap})"
            )
    return [StandardTableau(rows) for rows in _tableau_fillings(lam)]


def content_of_n_box(tab: StandardTableau) -> int:
    """``column - row`` of the box holding the largest entry.

    >>> content_of_n_box(StandardTableau(((1, 2, 3),)))
    2
    >>> content_of_n_box(StandardTableau(((1, 2), (3,))))
    -1
    """
    n = tab.size
    for i, row in enumerate(tab.rows):
        for j, entry in enumerate(row):
            if entry == n:
                return j - i
    raise AssertionError("unreachable: tableau has no largest entry")


# --------------------------------------------------------------------------
# irreducible block data

Scalar = Fraction | float


@dataclass(frozen=True)
class IrrepData:
    """Constants attached to one irreducible block.

    ``label`` is a partition (symmetric family), a 0/1 tuple (hypercube),
    or one of ``"triv"``, ``"sgn"``, ``"plus"``, ``"minus"``, or an integer
    ``0 < lam < n/2`` (dihedral).  ``t_of_q`` evaluates the generic degree;
    it returns a `Fraction` for rational ``q`` except on the two-dimensional
    dihedral blocks, whose degrees are algebraic irrationals and come back
    as floats.
    """

    label: object
    d: int
    c: int
    t_of_q: Callable[[Scalar], Scalar]


class _Block(NamedTuple):
    """One partition of ``n`` with the data the symmetric closed forms read:
    the number ``d`` of standard tableaux, the content sum ``c``, the
    sub-diagonal weight ``shift = sum_i (i - 1) lam_i`` (rows from 1) and
    the hook lengths, row-major."""

    lam: Partition
    d: int
    c: int
    shift: int
    hooks: tuple[int, ...]


def _partition_count(n: int, cap: int) -> tuple[int, int]:
    """``(m, p(m))`` for the first ``m <= n`` with p(m) > ``cap``, else ``(n, p(n))``.

    p by Euler's pentagonal number recurrence, listing no partition.  p is
    nondecreasing, so past the cap p(n) >= p(m) > cap: the recurrence stops
    there, and its cost depends on the cap, not on ``n``.

    >>> [_partition_count(n, 50_000) for n in (0, 4, 41, 42, 10**6)]
    [(0, 1), (4, 5), (41, 44583), (42, 53174), (42, 53174)]
    """
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (gap := k * (3 * k - 1) // 2) <= m:
            term = p[m - gap] + (p[m - gap - k] if gap + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p.append(total)
        if total > cap:
            return m, total
    return n, p[n]


def _symmetric_blocks(n: int) -> tuple[_Block, ...]:
    """The blocks of the symmetric family on ``n`` letters, in the order of
    :func:`partitions`, so the trivial block ``(n,)`` comes first.

    Refused before any partition is listed when their number p(n) exceeds
    the enumeration cap.
    """
    cap = enumeration_cap()
    m, count = _partition_count(n, cap)
    if count > cap:
        bound = f"p({n}) = {count}" if m == n else f"p({n}) >= p({m}) = {count}"
        raise CapExceededError(
            f"the symmetric closed forms on S_{n} sum over {bound} partitions, "
            f"over the enumeration cap {cap} (raise HECKE_METRO_CAP to allow it)"
        )
    return _block_table(n)


@lru_cache(maxsize=8)
def _block_table(n: int) -> tuple[_Block, ...]:
    """:func:`_symmetric_blocks` without the cap check."""
    factorial = math.factorial(n)
    blocks = []
    for lam in partitions(n):
        hooks = _hooks(lam)
        blocks.append(
            _Block(
                lam=lam,
                d=factorial // math.prod(hooks),
                c=sum(part * (part - 1) // 2 - i * part for i, part in enumerate(lam)),
                shift=sum(i * part for i, part in enumerate(lam)),
                hooks=hooks,
            )
        )
    return tuple(blocks)


@lru_cache(maxsize=8)
def _removable_corners(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each block of ``n`` (table order), ``(content, f)`` for each
    removable corner: ``f = d`` of the shape with that corner removed, the
    number of standard tableaux holding ``n`` in the corner (the branching
    rule, Sagan, *The Symmetric Group*, 2.8)."""
    smaller = {block.lam: block.d for block in _symmetric_blocks(n - 1)}
    out = []
    for block in _symmetric_blocks(n):
        lam = block.lam
        corners = []
        for i, part in enumerate(lam):
            if i + 1 < len(lam) and lam[i + 1] == part:
                continue
            rest = lam[:i] + (part - 1,) + lam[i + 1 :] if part > 1 else lam[:i]
            corners.append((part - 1 - i, smaller[rest]))
        out.append(tuple(corners))
    return tuple(out)


def _q_int(q: Scalar, k: int) -> Scalar:
    """The q-integer ``1 + q + ... + q^(k-1)`` (safe at q = 1)."""
    total = q - q  # zero of matching type
    power = 1 + total
    for _ in range(k):
        total += power
        power *= q
    return total


def _q_table(q: Scalar, n: int) -> tuple[list[Scalar], Scalar]:
    """``[k]_q`` for ``k = 0..n`` and ``[n]_q!``."""
    ints = [_q_int(q, k) for k in range(n + 1)]
    return ints, math.prod(ints[1:], start=1 + (q - q))


def _degree(block: _Block, q: Scalar, table: tuple[list[Scalar], Scalar]) -> Scalar:
    """The generic degree ``t_lam(q) = q^shift [n]_q! / prod_h [h]_q``
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.3 ex. 2)."""
    ints, factorial = table
    val = q**block.shift * factorial
    for h in block.hooks:
        val /= ints[h]
    return val


def _symmetric_degree(block: _Block) -> Callable[[Scalar], Scalar]:
    def t_of_q(q: Scalar) -> Scalar:
        return _degree(block, q, _q_table(q, sum(block.lam)))

    return t_of_q


def _log_q_int(q: float, k: int) -> float:
    """log of the q-integer ``[k]_q`` for float ``q >= 1``, without forming q^k."""
    if q == 1:
        return math.log(k)
    return k * math.log(q) + math.log1p(-(q**-k)) - math.log(q - 1)


def _log_symmetric_degree(block: _Block, q: float, logs: list[float]) -> float:
    """log t_lam(q) for float ``q >= 1``, for when t_lam(q) is beyond the
    float range; ``logs[k]`` is ``log [k]_q`` for ``k = 1..n``."""
    return (
        block.shift * math.log(q)
        + sum(logs[1:])
        - sum(logs[h] for h in block.hooks)
    )


def _block_sum(theta: Scalar, n: int, terms, degrees: bool) -> Scalar:
    """``sum over (block, pairs) in terms of [t_lam(1/theta)] * sum over
    (mult, k) in pairs of mult * theta^k``, with the generic degree of
    the block only when ``degrees``.  A float theta gives a float, a
    `Fraction` theta the exact value."""
    if isinstance(theta, float):
        return _float_block_sum(theta, n, terms, degrees)
    return _exact_block_sum(theta, n, terms, degrees)


def _float_block_sum(theta: float, n: int, terms, degrees: bool) -> float:
    # in the order given, each term t * mult * theta^k as written; a term
    # past the float range (or inf * 0) is taken in logs instead
    q = 1 / theta
    table = _q_table(q, n) if degrees else None
    logs = None
    total = theta - theta
    for block, pairs in terms:
        t, log_t = 1, None
        if degrees:
            try:
                t = _degree(block, q, table)
            except OverflowError:  # q^shift
                t = math.inf
        for mult, k in pairs:
            term = t * mult * theta**k
            if not math.isfinite(term):
                # float t_lam overflowed (and theta^k may have underflowed)
                if log_t is None:
                    logs = logs or [0.0] + [_log_q_int(q, i) for i in range(1, n + 1)]
                    log_t = _log_symmetric_degree(block, q, logs)
                term = _log_domain(log_t + math.log(mult) + k * math.log(theta))
            total += term
    return total


def _exact_block_sum(theta: Fraction, n: int, terms, degrees: bool) -> Fraction:
    """The sum in integers.  With ``theta = a/b``, so ``q = b/a``,
    ``[k]_q = P_k / a^(k-1)`` with ``P_k = sum_j a^(k-1-j) b^j``, hence
    ``t_lam = b^shift R / a^e`` with ``R = prod_(i<=n) P_i // prod_h P_h``
    (exact: the q-hook quotient is a polynomial in q) and
    ``e = C(n, 2) - c - shift``.  Every term goes over one common
    denominator ``a^i b^j`` and one `Fraction` is built at the end."""
    a, b = theta.numerator, theta.denominator
    if degrees:
        P = [0, 1]
        for k in range(2, n + 1):
            P.append(a * P[-1] + b ** (k - 1))
        factorial = math.prod(P[1:])
        big_l = n * (n - 1) // 2  # C(n, 2), the longest length
    items = []
    for block, pairs in terms:
        ratio, a_exp, b_exp = 1, 0, 0
        if degrees:
            ratio = factorial // math.prod([P[h] for h in block.hooks])
            a_exp, b_exp = block.shift + block.c - big_l, block.shift
        items += [(ratio * mult, a_exp + k, b_exp - k) for mult, k in pairs]
    if not items:
        return Fraction(0)
    a_den = max(0, -min(item[1] for item in items))
    b_den = max(0, -min(item[2] for item in items))
    num = sum(m * a ** (i + a_den) * b ** (j + b_den) for m, i, j in items)
    return Fraction(num, a**a_den * b**b_den)


def _dihedral_two_dim_degree(n: int, lam: int) -> Callable[[Scalar], float]:
    gap = 2 - 2 * math.cos(2 * math.pi * lam / n)

    def t_of_q(q: Scalar) -> float:
        qf = float(q)
        series = float(_q_int(qf, n))
        return (series / n) * qf * (qf + 1) * gap / (
            qf * qf - (2 - gap) * qf + 1
        )

    return t_of_q


def irreps(family: GroupFamily) -> list[IrrepData]:
    """Complete list of irreducible-block constants for the family.

    The trivial block (``t = 1`` and ``c = length of longest element``)
    always comes first.
    """
    n = family.n
    if family.kind == "symmetric":
        return [
            IrrepData(label=b.lam, d=b.d, c=b.c, t_of_q=_symmetric_degree(b))
            for b in _symmetric_blocks(n)
        ]
    if family.kind == "hypercube":
        out = []
        for mask in range(check_order(family)):  # one block per element
            bits = tuple((mask >> i) & 1 for i in range(n))
            weight = sum(bits)
            out.append(
                IrrepData(
                    label=bits,
                    d=1,
                    c=n - 2 * weight,
                    t_of_q=lambda q, w=weight: q**w,
                )
            )
        out.sort(key=lambda rep: (sum(rep.label), rep.label))
        return out
    if family.kind == "dihedral":
        out = [
            IrrepData(label="triv", d=1, c=n, t_of_q=lambda q: q**0),
            IrrepData(label="sgn", d=1, c=-n, t_of_q=lambda q: q**n),
        ]
        if n % 2 == 0:
            # the two one-dimensional blocks sending one generator to q
            # and the other to -1
            def t_pm(q: Scalar) -> Scalar:
                return 2 * q * _q_int(q, n) / (n * (1 + q))

            out.append(IrrepData(label="plus", d=1, c=0, t_of_q=t_pm))
            out.append(IrrepData(label="minus", d=1, c=0, t_of_q=t_pm))
        for lam in range(1, (n + 1) // 2):
            out.append(
                IrrepData(
                    label=lam,
                    d=2,
                    c=0,
                    t_of_q=_dihedral_two_dim_degree(n, lam),
                )
            )
        return out
    raise AssertionError(f"unhandled family kind {family.kind!r}")


def _longest_length(family: GroupFamily) -> int:
    """L = sum of (degree - 1), in closed form, so a huge n lists no degrees."""
    n = family.n
    if family.kind == "symmetric":
        return n * (n - 1) // 2
    return n  # hypercube: n degrees 2; dihedral: degrees 2 and n


def sum_d_t(family: GroupFamily, q) -> Fraction:
    """Exact value of ``sum_lam d_lam * t_lam(q)`` at rational ``q``.

    For the symmetric and hypercube families this sums the exact generic
    degrees directly.  The two-dimensional dihedral degrees are irrational
    individually, so their sum is evaluated in closed form as a sum over
    the nontrivial ``n``-th roots of unity; the result is rational.  In
    every case the value agrees with the length generating polynomial
    ``P_W(q)``, which makes the pair an effective cross-check.
    """
    q = check_q(q)
    n = family.n
    if family.kind == "symmetric":
        blocks = _symmetric_blocks(n)
        return _block_sum(1 / q, n, ((b, ((b.d, 0),)) for b in blocks), degrees=True)
    if family.kind == "hypercube":
        return sum(
            (rep.d * rep.t_of_q(q) for rep in irreps(family)), Fraction(0)
        )
    return 1 + q**n + _dihedral_root_sum(n, q)


def _dihedral_root_sum(n: int, q: Fraction) -> Fraction:
    """``sum_xi f(xi)`` over the nontrivial n-th roots of unity, where
    ``f(xi)`` is the ``d*t`` contribution of the block with angle ``xi``
    (each two-dimensional block is hit twice, via ``xi`` and ``1/xi``):

        ``f(xi) = scale (1 - xi)(1 - 1/xi) / ((q - xi)(q - 1/xi))
                = (scale/q) (1 - (q - 1)^2 / ((q - xi)(q - 1/xi)))``.

    Over all ``n`` roots, ``sum 1/((q - xi)(q - 1/xi))`` is the Poisson
    kernel sum ``n (q^n + 1) / ((q^2 - 1)(q^n - 1))``; the root ``xi = 1``
    contributes ``1/(q - 1)^2``.  Dropping it leaves

        ``(scale/q) (n - n (q^n + 1) / ((q + 1) [n]_q))``,

    which has no pole at ``q = 1``.  Kept per block (``scale`` times the
    angle sum) rather than folded into ``P_W(q)``, so that comparing
    :func:`sum_d_t` with the Poincare polynomial stays a real check.
    """
    series = _q_int(q, n)
    scale = series * q * (q + 1) / n
    return scale / q * (n - n * (q**n + 1) / ((q + 1) * series))


# --------------------------------------------------------------------------
# closed-form chi-square distances

def _hypercube_weight_counts(w: int, n: int) -> list[list[int]]:
    """``counts[j][k]`` = number of 0/1 labels with weight ``j`` whose dot
    product with a start of weight ``w`` is ``k``."""
    counts = []
    for j in range(n + 1):
        counts.append(
            [
                math.comb(w, k) * math.comb(n - w, j - k) if j - k <= n - w else 0
                for k in range(min(j, w) + 1)
            ]
        )
    return counts


def _start_weight(family: GroupFamily, start: GroupElement | None) -> int:
    """The Hamming weight of a hypercube start, 0 for the default (the
    identity), which is not built: it has one bit per coordinate."""
    if start is None:
        return 0
    if start.family != family:
        raise ValueError(f"start {start} does not belong to {family}")
    return sum(start.payload)


def _hypercube_product(theta: Scalar, factors, minus_one: bool) -> Scalar:
    """``prod (1 + theta^k)^e`` over the ``(k, e)`` in ``factors``, less one
    if ``minus_one``: a hypercube block sum, which factors over the
    coordinates because every block is one-dimensional.  Exact for a
    Fraction theta; a float theta goes through ``log1p`` and ``expm1``, so
    that a tiny ``theta^k`` is not lost next to 1 and a value past the
    float range is ``inf``."""
    if isinstance(theta, Fraction):
        value = math.prod((1 + theta**k) ** e for k, e in factors)
        return value - 1 if minus_one else value
    logs = 0.0
    for k, e in factors:
        try:
            logs += e * math.log1p(theta**k)
        except OverflowError:  # theta^k past the float range, k < 0
            logs += e * k * math.log(theta)
    return _expm1(logs) if minus_one else _log_domain(logs)


def long_scan_chisq(family, theta, ell: int, start: GroupElement | None = None):
    """Chi-square distance to ``pi`` after ``ell`` passes of the long scan.

    The long scan multiplies by the square of the longest element in the
    deformed algebra, which acts on each irreducible block as the scalar
    ``theta^(L - c_lam)`` (``L`` the longest length).  Starting from the
    identity this gives

        ``sum_{lam != triv} t_lam d_lam theta^(2 ell (L - c_lam))``.

    Only the hypercube family admits a closed form for an arbitrary
    ``start`` (all blocks are one-dimensional); the other families require
    ``start`` to be the identity.

    Exact when ``theta`` is rational; float ``theta`` gives floats.
    """
    theta = check_theta(theta)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    n = family.n
    if family.kind == "hypercube":
        # a one at the start weighs a nontrivial coordinate theta^(4 ell + 1)
        # where a zero weighs it theta^(4 ell - 1)
        w = _start_weight(family, start)
        factors = ((4 * ell - 1, n - w), (4 * ell + 1, w))
        return _hypercube_product(theta, factors, minus_one=True)
    if start is not None and start != identity(family):
        raise ValueError(
            "closed form requires the identity start for this family"
        )
    if family.kind == "dihedral":
        hold = _q_int(theta, 2) * _q_int(theta, n) - 1
        return (
            theta ** ((4 * ell - 1) * n)
            + theta ** ((2 * ell - 1) * n) * hold
            - theta ** (2 * ell * n)
        )
    big_l = _longest_length(family)
    blocks = _symmetric_blocks(n)[1:]  # the trivial block (n,) comes first
    terms = ((b, ((b.d, 2 * ell * (big_l - b.c)),)) for b in blocks)
    return _block_sum(theta, n, terms, degrees=True)


def _long_power_sum(family: GroupFamily, theta: Scalar, m: int) -> Scalar:
    """``tr(K^m) - 1`` for the long-scan kernel K: the sum over the
    nontrivial blocks of ``d_lam^2 theta^(m (L - c_lam))``, since K acts on
    each block as the scalar ``theta^(L - c_lam)``, with multiplicity
    ``d_lam^2`` in the regular module."""
    n = family.n
    if family.kind == "hypercube":
        return _hypercube_product(theta, ((2 * m, n),), minus_one=True)
    if family.kind == "dihedral":
        # sgn (c = -n), then every block with c = 0
        return theta ** (2 * m * n) + (2 * n - 2) * theta ** (m * n)
    big_l = _longest_length(family)
    blocks = _symmetric_blocks(n)[1:]  # the trivial block (n,) comes first
    terms = ((b, ((b.d**2, m * (big_l - b.c)),)) for b in blocks)
    return _block_sum(theta, n, terms, degrees=False)


def _short_power_sum(n: int, theta: Scalar, m: int) -> Scalar:
    """``tr(K^m) - 1`` for the short-scan kernel K on the symmetric family:
    ``sum_{lam != (n)} d_lam sum_S theta^(m (n - 1 - c(S(n))))``, summed
    over removable corners as in :func:`short_scan_chisq_symmetric`."""
    blocks = zip(_symmetric_blocks(n)[1:], _removable_corners(n)[1:])
    terms = (  # x is the content of the corner
        (b, [(b.d * f, m * (n - 1 - x)) for x, f in corners]) for b, corners in blocks
    )
    return _block_sum(theta, n, terms, degrees=False)


def long_scan_avg_chisq(family, theta, ell: int):
    """Pi-weighted average over starting points of the long-scan chi-square:
    ``sum_{lam != triv} d_lam^2 theta^(2 ell (L - c_lam))``, which is
    ``tr(K^(2 ell)) - 1`` as the long scan is pi-reversible.  Exact for
    rational ``theta``."""
    theta = check_theta(theta)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return _long_power_sum(family, theta, 2 * ell)


def long_scan_trace(family: GroupFamily, theta, m: int):
    """Trace of the ``m``-th power of the long-scan kernel,
    ``sum_lam d_lam^2 theta^(m (L - c_lam))`` (trivial block included).
    The eigenvalue on each block is ``theta^(L - c_lam)`` with multiplicity
    ``d_lam^2`` in the regular module."""
    return 1 + _long_power_sum(family, check_theta(theta), m)


def short_scan_chisq_symmetric(n: int, theta, ell: int, averaged: bool = False):
    """Chi-square distance for the short scan on the symmetric family.

    One pass applies the generators in the order ``1..n-1, n-1..1``; on the
    block labelled by a partition the eigenvalues are
    ``theta^(n - 1 - c(S(n)))`` indexed by standard tableaux ``S``, with
    ``c(S(n))`` the content of the box holding ``n``.  Started at the
    identity the distance is

        ``sum_{lam != (n)} t_lam sum_S theta^(2 ell (n - 1 - c(S(n))))``

    and the pi-averaged version replaces ``t_lam`` with ``d_lam``, which is
    ``tr(K^(2 ell)) - 1``.  The tableaux with ``n`` in the removable corner
    ``(i, lam_i)`` are counted by ``f^(lam minus corner)``, so the inner sum
    runs over corners:

        ``sum_corners f^(lam minus corner) theta^(2 ell (n - 1 - (lam_i - i)))``

    with rows ``i`` counted from 1.  Exact for rational ``theta``.
    """
    theta = check_theta(theta)
    if n < 2:
        raise ValueError("need n >= 2")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if averaged:
        return _short_power_sum(n, theta, 2 * ell)
    blocks = zip(_symmetric_blocks(n)[1:], _removable_corners(n)[1:])
    terms = ((b, [(f, 2 * ell * (n - 1 - x)) for x, f in corners]) for b, corners in blocks)
    return _block_sum(theta, n, terms, degrees=True)


def short_scan_trace_symmetric(n: int, theta, m: int):
    """Trace of the ``m``-th power of the short-scan kernel on the
    symmetric family: ``sum_lam d_lam sum_S theta^(m (n - 1 - c(S(n))))``,
    summed over removable corners as in :func:`short_scan_chisq_symmetric`."""
    return 1 + _short_power_sum(n, check_theta(theta), m)


def random_scan_chisq_hypercube(n: int, theta, ell: int, start: GroupElement | None = None):
    """Chi-square distance for the single-site random scan on the
    hypercube, started from the element ``start`` (default all zeros):

        ``sum_{lam != 0} theta^(2 lam.x - |lam|)
          (1 - (|lam|/n)(1 + theta))^(2 ell)``.

    Labels are grouped by ``(|lam|, lam.x)`` with binomial multiplicities,
    so the sum costs O(n^2) instead of 2^n.
    """
    theta = check_theta(theta)
    exact = isinstance(theta, Fraction)
    counts = _hypercube_weight_counts(_start_weight(hypercube(n), start), n)
    total = theta - theta
    for j in range(1, n + 1):
        ratio = Fraction(j, n) if exact else j / n
        gap = (1 - ratio * (1 + theta)) ** (2 * ell)
        for k, mult in enumerate(counts[j]):
            if mult:
                try:
                    total += mult * theta ** (2 * k - j) * gap
                except OverflowError:
                    return math.inf  # float only: theta^(2k - j) is past the range
    if isinstance(total, float) and math.isnan(total):
        return math.inf  # an overflowed product met an underflowed gap: inf * 0
    return total


def dihedral_random_scan_chisq(n: int, theta, ell: int, averaged: bool = False) -> float:
    """Chi-square distance for the random scan on the dihedral family
    (floating point; the kernel eigenvalues involve ``cos(pi lam / n)``).

    Started at the identity:

        ``theta^(2 ell - n) + (theta^(1-n)/n)(1+theta)(1+...+theta^(n-1))
          * sum_{0 < lam < n} (2 - 2 cos(2 pi lam/n))
            / (theta^2 - 2 cos(2 pi lam/n) theta + 1)
            * ((theta + 2 cos(pi lam/n) sqrt(theta) - 1)/2)^(2 ell)``

    and pi-averaged:

        ``theta^(2 ell) + sum_{0 < lam < n}
          2 ((theta + 2 cos(pi lam/n) sqrt(theta) - 1)/2)^(2 ell)``.

    The ``lam = n/2`` term (even ``n``) carries the two extra
    one-dimensional blocks; the sum over ``0 < lam < n`` covers them.
    """
    theta = float(check_theta(theta))
    if n < 3:
        raise ValueError("need n >= 3")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    root = math.sqrt(theta)
    if averaged:
        total = theta ** (2 * ell)
        for lam in range(1, n):
            eig = (theta + 2 * math.cos(math.pi * lam / n) * root - 1) / 2
            total += 2 * eig ** (2 * ell)
        return total
    series = sum(theta**i for i in range(n))
    try:
        prefactor = theta ** (1 - n) / n * (1 + theta) * series
    except OverflowError:  # theta^(1 - n); the terms are then taken in logs
        prefactor = math.inf
    log_prefactor = (1 - n) * math.log(theta) - math.log(n) + math.log1p(theta) + math.log(series)
    try:
        total = theta ** (2 * ell - n)
    except OverflowError:
        total = math.inf
    for lam in range(1, n):
        two_cos = 2 * math.cos(2 * math.pi * lam / n)
        eig = (theta + 2 * math.cos(math.pi * lam / n) * root - 1) / 2
        spread = theta**2 - two_cos * theta + 1
        term = prefactor * (2 - two_cos) / spread * eig ** (2 * ell)
        if not math.isfinite(term):
            # past the float range on the way: the term in logs, 0 where eig^(2 ell) is
            log_power = 2 * ell * math.log(abs(eig) or 1.0)
            logs = log_prefactor + math.log((2 - two_cos) / spread) + log_power
            term = 0.0 if ell and not eig else _log_domain(logs)
        total += term
    return total


def closed_form(family: GroupFamily, scan: str, theta, ell: int, averaged: bool = False):
    """Closed-form chi-square after ``ell`` passes of the ``scan`` kernel.

    ``scan`` is ``"long"``, ``"short"`` or ``"random"``; the distance is
    from the identity start, or pi-averaged over starts when ``averaged``.
    A `Fraction` theta gives the exact value and a float theta a float;
    nothing else selects the mode.  The hypercube short scan visits every
    generator twice, which is exactly that family's long recipe, so it
    reuses the long-scan forms.

    Raises ValueError where no form exists: the symmetric random scan, the
    dihedral short scan, the dihedral random scan at a rational theta (its
    eigenvalues involve cosines) and the averaged hypercube random scan.
    """
    if scan not in ("long", "short", "random"):
        raise ValueError(f"scan must be long, short or random, got {scan!r}")
    theta = check_theta(theta)
    if scan == "long" or (scan == "short" and family.kind == "hypercube"):
        if averaged:
            return long_scan_avg_chisq(family, theta, ell)
        return long_scan_chisq(family, theta, ell)
    if scan == "short":
        if family.kind == "symmetric":
            return short_scan_chisq_symmetric(family.n, theta, ell, averaged=averaged)
        raise ValueError(
            "no closed form for the dihedral short scan; the long and random scans have one"
        )
    if family.kind == "hypercube":
        if averaged:
            raise ValueError("no averaged closed form for the hypercube random scan")
        return random_scan_chisq_hypercube(family.n, theta, ell)
    if family.kind == "dihedral":
        if isinstance(theta, Fraction):
            raise ValueError(
                "the dihedral random-scan closed form involves cosines, "
                "so it needs a float theta (float mode)"
            )
        return dihedral_random_scan_chisq(family.n, theta, ell, averaged=averaged)
    raise ValueError(
        "no closed form for the symmetric random scan; the long and short scans have one"
    )


# --------------------------------------------------------------------------
# explicit upper bounds

def _require_theta_open(theta: float) -> float:
    theta = float(theta)
    if not 0 < theta < 1:
        raise ValueError(
            f"bound requires 0 < theta < 1 (log theta appears), got {theta}"
        )
    return theta


def _log_domain(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _expm1(x: float) -> float:
    """``e^x - 1`` without cancellation at small ``x``; ``math.inf`` past
    the float range."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def bound_theorem_1_4(n: int, theta, c) -> float:
    """Total-variation-squared upper bound for the short scan on the
    symmetric family started at the identity, evaluated at
    ``ell = n/2 - log n/log theta + c``:

        ``(e^(theta^(2c+1)) - 1)
          + n! * theta^(n^2/8 - n log n/log theta + n(c + 1/4))``.
    """
    theta = _require_theta_open(theta)
    c = float(c)
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    if n < 2:
        raise ValueError("need n >= 2")
    log_theta = math.log(theta)
    exponent = n * n / 8 - n * math.log(n) / log_theta + n * (c + 0.25)
    tail = _log_domain(math.lgamma(n + 1) + exponent * log_theta)
    return math.expm1(theta ** (2 * c + 1)) + tail


def bound_hypercube(n: int, theta, c, scan: str = "random") -> float:
    """Hypercube upper bounds at the natural step counts.

    ``scan="random"``:  ``(e^(e^-c) - 1) + e^(-c/2)`` at
    ``ell = n (log n - log theta + c) / (2 (1 + theta))`` single-site moves.
    ``scan="systematic"``:  ``(1/4)(e^(e^-c) - 1)`` at
    ``ell = (1/4)((log n + c)/log(1/theta) + 1)`` full passes.

    The value itself is theta-free, but the advertised step counts blow
    up as theta -> 1, so theta = 1 is rejected like the other bounds.
    """
    theta = _require_theta_open(theta)
    c = float(c)
    if n < 1:
        raise ValueError("need n >= 1")
    if scan == "random":
        return math.expm1(math.exp(-c)) + math.exp(-c / 2)
    if scan == "systematic":
        return math.expm1(math.exp(-c)) / 4
    raise ValueError(f"scan must be 'random' or 'systematic', got {scan!r}")


def bound_symmetric_scans(n: int, theta, which: str, c=None) -> float:
    """Explicit bounds for the symmetric-family scans.

    ``which`` selects the scan and the starting regime:

    * ``"long_start"``  -- long scan from the identity, one pass:
      ``(e^(n^2 theta^(n/2)) - 1) + n! theta^(n^2/8 + 5n/4)``.
    * ``"long_avg"``    -- long scan averaged over starts, one pass:
      ``(e^(n^2 theta^n) - 1) + n! theta^(n^2/2 + n)``.
    * ``"short_start"`` -- short scan from the identity at
      ``ell = n/2 - log n/log theta + c`` (requires ``c > 0``).
    * ``"short_avg"``   -- short scan averaged over starts at
      ``ell = -log n/log theta + c``:
      ``(e^(theta^(2c)) - 1) + (theta^c/e)^n e^(1/12) sqrt(2 pi n)``.
    """
    theta = _require_theta_open(theta)
    if n < 2:
        raise ValueError("need n >= 2")
    log_theta = math.log(theta)
    if which == "long_start":
        tail = _log_domain(
            math.lgamma(n + 1) + (n * n / 8 + 5 * n / 4) * log_theta
        )
        return _expm1(n * n * theta ** (n / 2)) + tail
    if which == "long_avg":
        tail = _log_domain(math.lgamma(n + 1) + (n * n / 2 + n) * log_theta)
        return _expm1(n * n * theta**n) + tail
    if c is None or float(c) <= 0:
        raise ValueError(f"{which!r} requires c > 0, got {c}")
    c = float(c)
    if which == "short_start":
        return bound_theorem_1_4(n, theta, c)
    if which == "short_avg":
        tail = _log_domain(
            n * (c * log_theta - 1) + 1 / 12 + 0.5 * math.log(2 * math.pi * n)
        )
        return math.expm1(theta ** (2 * c)) + tail
    raise ValueError(
        "which must be one of 'long_start', 'long_avg', "
        f"'short_start', 'short_avg'; got {which!r}"
    )


def bound_dihedral_random_scan(n: int, theta, ell: int) -> float:
    """Random-scan chi-square bound on the dihedral family:
    ``theta^-n sqrt((1+theta)/(1-theta)) (1 - (1/2)(1 - sqrt(theta))^2)^(2 ell)``.
    Quoted as an evaluable bound only, with no claim of tightness.
    Evaluated in logs; ``math.inf`` (still a true upper bound) when the
    value is beyond the float range, and 0.0 when it underflows, as it does
    for a pass count past the float range."""
    theta = _require_theta_open(theta)
    if n < 3:
        raise ValueError("need n >= 3")
    gap = 1 - 0.5 * (1 - math.sqrt(theta)) ** 2
    # a pass count past the float range is capped at the largest float: the
    # bound falls as the count grows, so the capped value is still a bound
    return _log_domain(
        -n * math.log(theta)
        + 0.5 * math.log((1 + theta) / (1 - theta))
        + 2 * math.log(gap) * min(ell, sys.float_info.max)
    )


def bound_dihedral_long_scan(n: int, theta) -> Fraction:
    """Single-pass chi-square bound for the long scan on the dihedral
    family: ``2 theta^(n+1) / (1 - theta)``.  Exact for rational theta."""
    theta = check_theta(theta)
    if isinstance(theta, Fraction) and theta == 1:
        raise ValueError("bound requires theta < 1")
    if n < 3:
        raise ValueError("need n >= 3")
    return 2 * theta ** (n + 1) / (1 - theta)


# --------------------------------------------------------------------------
# lead constants


@dataclass(frozen=True)
class LeadConstantRow:
    """Leading-order step counts (single-site moves) to reach stationarity
    on the hypercube for both scan disciplines at one value of theta."""

    theta: float
    random_scan: float
    systematic_scan: float


def lead_constant_table(thetas: Iterable[float], n: int) -> list[LeadConstantRow]:
    """Evaluate the leading-term constants at size ``n``:

    random scan ``n log(n/theta) / (2 (1 + theta))`` versus systematic scan
    ``n log n / (2 log(1/theta))``.  As ``theta -> 0`` the systematic
    constant wins; at ``theta`` near 1 the random scan does.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rows = []
    for theta in thetas:
        theta = _require_theta_open(theta)
        rows.append(
            LeadConstantRow(
                theta=theta,
                random_scan=n * math.log(n / theta) / (2 * (1 + theta)),
                systematic_scan=n * math.log(n) / (2 * math.log(1 / theta)),
            )
        )
    return rows


if __name__ == "__main__":
    import doctest

    doctest.testmod()
