"""Three families of finite Coxeter groups with exact combinatorics.

Supported families:

* ``symmetric(n)`` -- the symmetric group S_n on {1..n}, generated by the
  adjacent transpositions s_i = (i, i+1) for i = 1..n-1; length = number
  of inversions.
* ``hypercube(n)`` -- (Z/2Z)^n, generated by the n coordinate flips;
  length = Hamming weight.
* ``dihedral(n)`` -- symmetries of the regular n-gon (order 2n), generated
  by two reflections s_1, s_2 with (s_1 s_2)^n = 1; length = minimal
  alternating word length.

Group elements are immutable and hashable; payloads are plain int tuples:
one-line notation for permutations, 0/1 vectors for the hypercube, and
(rotation exponent, reflection flag) pairs for the dihedral group, where
``(k, f)`` stands for r^k s_1^f with r = s_1 s_2.

Everything here is exact: lengths and orders are ints, and Poincare
polynomials at a rational q are `fractions.Fraction`.  Enumeration order
is lexicographic on the payload and therefore stable across runs, and
:func:`index` gives an element's position in it.  :func:`action_tables`
is the one representation of the group action the exact engine uses: per
generator, a permutation of those positions and an up-mask, with the
lengths, read off the payloads without building a :class:`GroupElement`.
:func:`enumerate` builds the elements themselves, for the APIs that take
them.  :func:`check_theta` and :func:`check_q` are the parameter checks
all layers share.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

__all__ = [
    "ActionTables",
    "CapExceededError",
    "GroupElement",
    "GroupFamily",
    "action_tables",
    "apply_generator",
    "check_order",
    "check_q",
    "check_theta",
    "degrees",
    "dihedral",
    "enumerate",
    "enumeration_cap",
    "generators",
    "hypercube",
    "identity",
    "index",
    "length",
    "longest_element",
    "multiply",
    "poincare_polynomial",
    "reduced_word",
    "symmetric",
]

DEFAULT_ENUMERATION_CAP = 50_000

_KINDS = ("symmetric", "hypercube", "dihedral")


class CapExceededError(ValueError):
    """Raised when a full enumeration would exceed the configured cap."""


def enumeration_cap() -> int:
    """Current enumeration cap (env var HECKE_METRO_CAP overrides)."""
    return int(os.environ.get("HECKE_METRO_CAP", DEFAULT_ENUMERATION_CAP))


def check_order(family: GroupFamily) -> int:
    """The order |W|, refused with :class:`CapExceededError` past the
    enumeration cap.  Every enumeration, and every work sized by |W|, is
    gated here.

    |W| is multiplied up, m! for the symmetric family and 2^m for the
    hypercube, only until the product passes the cap, so a refusal costs
    the same for every larger group and |W| is never formed past it: at
    the default cap, S_1000000 is refused as "|symmetric(1000000)| >= 9! =
    362880 exceeds the enumeration cap 50000".

    >>> check_order(dihedral(5))
    10
    """
    n, cap = family.n, enumeration_cap()
    if family.kind == "dihedral":
        m, order, name = n, 2 * n, f"2*{n}"
    else:
        factorial = family.kind == "symmetric"
        m, order = int(factorial), 1  # 1! or 2^0
        while m < n and order <= cap:
            m += 1
            order *= m if factorial else 2
        name = f"{m}!" if factorial else f"2^{m}"
    if order > cap:
        relation = "=" if m == n else ">="
        raise CapExceededError(
            f"|{family}| {relation} {name} = {order} exceeds the enumeration cap "
            f"{cap} (raise HECKE_METRO_CAP to allow it)"
        )
    return order


def check_theta(theta) -> Fraction | float:
    """The bias parameter, checked to satisfy 0 < theta <= 1.

    A float stays a float; anything else (an int, a Fraction, a string
    such as "1/2") becomes a Fraction.  Every layer validates theta here.
    """
    if not isinstance(theta, float):
        theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    return theta


def check_q(q) -> Fraction:
    """The deformation parameter q = 1/theta as a Fraction, checked to be positive."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    return q


@dataclass(frozen=True)
class GroupFamily:
    """One of the three supported reflection-group families."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        minimum = {"symmetric": 2, "hypercube": 1, "dihedral": 3}[self.kind]
        if self.n < minimum:
            raise ValueError(f"{self.kind} family needs n >= {minimum}, got {self.n}")

    @property
    def rank(self) -> int:
        """Number of simple reflections."""
        if self.kind == "symmetric":
            return self.n - 1
        if self.kind == "hypercube":
            return self.n
        return 2

    @property
    def order(self) -> int:
        if self.kind == "symmetric":
            return math.factorial(self.n)
        if self.kind == "hypercube":
            return 2**self.n
        return 2 * self.n

    def __str__(self) -> str:
        return f"{self.kind}({self.n})"


def symmetric(n: int) -> GroupFamily:
    return GroupFamily("symmetric", n)


def hypercube(n: int) -> GroupFamily:
    return GroupFamily("hypercube", n)


def dihedral(n: int) -> GroupFamily:
    return GroupFamily("dihedral", n)


@dataclass(frozen=True)
class GroupElement:
    """Immutable group element: a family tag plus a tuple payload."""

    family: GroupFamily
    payload: tuple[int, ...]

    def __post_init__(self) -> None:
        kind, n = self.family.kind, self.family.n
        p = self.payload
        if kind == "symmetric":
            if sorted(p) != list(range(1, n + 1)):
                raise ValueError(f"not a permutation of 1..{n}: {p}")
        elif kind == "hypercube":
            if len(p) != n or any(b not in (0, 1) for b in p):
                raise ValueError(f"not a length-{n} bit vector: {p}")
        else:
            if len(p) != 2 or not (0 <= p[0] < n) or p[1] not in (0, 1):
                raise ValueError(f"not a valid rotation/flag pair mod {n}: {p}")


def identity(family: GroupFamily) -> GroupElement:
    if family.kind == "symmetric":
        return GroupElement(family, tuple(range(1, family.n + 1)))
    if family.kind == "hypercube":
        return GroupElement(family, (0,) * family.n)
    return GroupElement(family, (0, 0))


def generators(family: GroupFamily) -> range:
    """Valid generator indices, 1-based."""
    return range(1, family.rank + 1)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a*b (functions compose left to right through b then a).

    For permutations this is composition (a*b)(i) = a(b(i)); for the
    hypercube coordinatewise addition mod 2; for the dihedral group the
    semidirect-product rule (j,e)*(k,f) = (j + (-1)^e k mod n, e xor f).
    """
    if a.family != b.family:
        raise ValueError(f"family mismatch: {a.family} vs {b.family}")
    fam = a.family
    if fam.kind == "symmetric":
        return GroupElement(fam, tuple(a.payload[v - 1] for v in b.payload))
    if fam.kind == "hypercube":
        return GroupElement(fam, tuple((x + y) % 2 for x, y in zip(a.payload, b.payload)))
    n = fam.n
    j, e = a.payload
    k, f = b.payload
    return GroupElement(fam, ((j + (k if e == 0 else -k)) % n, e ^ f))


def apply_generator(i: int, w: GroupElement) -> GroupElement:
    """Left action s_i * w."""
    fam = w.family
    if i not in generators(fam):
        raise ValueError(f"generator index {i} out of range for {fam}")
    if fam.kind == "symmetric":
        # swap the *values* i and i+1 in one-line notation
        return GroupElement(
            fam,
            tuple(i + 1 if v == i else i if v == i + 1 else v for v in w.payload),
        )
    if fam.kind == "hypercube":
        p = list(w.payload)
        p[i - 1] ^= 1
        return GroupElement(fam, tuple(p))
    # dihedral: s_1 = (0, 1), s_2 = r^(n-1) s_1 = (n - 1, 1)
    return multiply(GroupElement(fam, (0, 1) if i == 1 else (fam.n - 1, 1)), w)


def length(w: GroupElement) -> int:
    """Coxeter length: minimal word length in the simple reflections.

    >>> length(identity(symmetric(4)))
    0
    >>> length(longest_element(symmetric(4)))
    6
    """
    fam = w.family
    if fam.kind == "symmetric":
        # inversions, counted from the right: each value against the
        # sorted values after it
        seen: list[int] = []
        count = 0
        for value in reversed(w.payload):
            k = bisect.bisect_left(seen, value)
            count += k
            seen.insert(k, value)
        return count
    if fam.kind == "hypercube":
        return sum(w.payload)
    return _dihedral_length(fam.n, *w.payload)


def _dihedral_length(n: int, k: int, f: int) -> int:
    """Length of r^k s_1^f in dihedral(n)."""
    if f == 0:
        return min(2 * k, 2 * (n - k))
    return min(2 * k + 1, 2 * (n - k) - 1)


def longest_element(family: GroupFamily) -> GroupElement:
    if family.kind == "symmetric":
        return GroupElement(family, tuple(range(family.n, 0, -1)))
    if family.kind == "hypercube":
        return GroupElement(family, (1,) * family.n)
    n = family.n
    # rotation by n/2 for even n, otherwise the middle reflection; both
    # have length n (check: min(2k, 2(n-k)) resp. min(2k+1, 2(n-k)-1)).
    return GroupElement(family, (n // 2, 0) if n % 2 == 0 else ((n - 1) // 2, 1))


def reduced_word(w: GroupElement) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_k) with s_{i_1} ... s_{i_k} = w.

    Greedy descent: repeatedly strip a length-decreasing generator from
    the left.  Terminates in exactly length(w) steps.
    """
    word: list[int] = []
    cur = w
    cur_len = length(cur)
    while cur_len > 0:
        for i in generators(w.family):
            nxt = apply_generator(i, cur)
            nxt_len = length(nxt)
            if nxt_len < cur_len:
                word.append(i)
                cur, cur_len = nxt, nxt_len
                break
        else:  # pragma: no cover - impossible for valid elements
            raise RuntimeError(f"no descent found for {cur}")
    return tuple(word)


def _payloads(family: GroupFamily) -> Iterable[tuple[int, ...]]:
    """The payloads of the elements in enumeration order, lexicographic."""
    if family.kind == "symmetric":
        return itertools.permutations(range(1, family.n + 1))
    if family.kind == "hypercube":
        return itertools.product((0, 1), repeat=family.n)
    return ((k, f) for k in range(family.n) for f in (0, 1))


def enumerate(family: GroupFamily) -> tuple[GroupElement, ...]:
    """All elements in lexicographic payload order, built afresh on each call.

    Raises CapExceededError when the group order exceeds the cap
    (default 50000; override with the HECKE_METRO_CAP env var), see
    :func:`check_order`.
    """
    check_order(family)
    return tuple(GroupElement(family, p) for p in _payloads(family))


class ActionTables(NamedTuple):
    """The left action of the simple reflections on enumeration positions.

    For the element w at position k of :func:`enumerate` (k = ``index(w)``),
    ``perms[i - 1][k]`` is the position of ``s_i w``, ``ups[i - 1][k]`` says
    whether that move lengthens w, and ``lengths[k]`` is the length of w.
    """

    lengths: list[int]
    perms: list[list[int]]
    ups: list[list[bool]]


@lru_cache(maxsize=None)
def action_tables(family: GroupFamily) -> ActionTables:
    """Index permutations and up-masks of every generator acting on the left,
    read off the payloads with no :class:`GroupElement` built."""
    check_order(family)
    lengths, perms = _left_tables(family)
    ups = [[lengths[t] > l for t, l in zip(perm, lengths)] for perm in perms]
    return ActionTables(lengths, perms, ups)


def index(w: GroupElement) -> int:
    """The position of w in :func:`enumerate`, read off its payload: the
    Lehmer code in the factorial base, the bits as a binary number, or 2k + f.

    >>> index(GroupElement(symmetric(3), (2, 3, 1)))
    3
    >>> index(GroupElement(hypercube(3), (1, 1, 0)))
    6
    >>> [index(w) for w in enumerate(dihedral(3))]
    [0, 1, 2, 3, 4, 5]
    """
    p = w.payload
    if w.family.kind == "symmetric":
        n, position = len(p), 0
        for j, value in zip(range(n), p):
            # digit j counts the later positions holding smaller values and
            # has place value (n - 1 - j)!
            position = position * (n - j) + sum(v < value for v in p[j + 1 :])
        return position
    if w.family.kind == "hypercube":
        position = 0
        for bit in p:  # coordinate 1 highest
            position = 2 * position + bit
        return position
    k, f = p
    return 2 * k + f


def _left_tables(family: GroupFamily) -> tuple[list[int], list[list[int]]]:
    """Lengths and, per generator, the position of ``s_i w``, by each family's
    arithmetic on the positions :func:`index` gives."""
    n = family.n
    if family.kind == "symmetric":
        # The position of w is its Lehmer code read in the factorial base,
        # and the length of w is the sum of the digits.
        lengths = [0]
        for m in range(2, n + 1):  # the first digit runs slowest
            lengths = [c + l for c in range(m) for l in lengths]
        payloads = list(_payloads(family))
        where = [[p.index(v) for p in payloads] for v in range(1, n + 1)]
        weight = [math.factorial(n - 1 - j) for j in range(n)]
        perms = []
        for i in range(1, n):
            # s_i w swaps the values i and i + 1; the first of their
            # positions, j, gains a digit when i comes first and loses one
            # otherwise, and no other digit changes
            perms.append(
                [
                    k + weight[j] if j < l else k - weight[l]
                    for k, j, l in zip(range(len(payloads)), where[i - 1], where[i])
                ]
            )
        return lengths, perms
    if family.kind == "hypercube":
        order = 1 << n
        lengths = [k.bit_count() for k in range(order)]
        return lengths, [[k ^ (1 << (n - i)) for k in range(order)] for i in range(1, n + 1)]
    # dihedral: s_1 = (0, 1) and s_2 = (n - 1, 1) send (k, f) to (-k, 1 - f)
    # and (n - 1 - k, 1 - f)
    payloads = list(_payloads(family))
    lengths = [_dihedral_length(n, k, f) for k, f in payloads]
    perms = [[2 * ((shift - k) % n) + 1 - f for k, f in payloads] for shift in (0, n - 1)]
    return lengths, perms


def degrees(family: GroupFamily) -> tuple[int, ...]:
    """Degrees d_1..d_rank of the reflection group."""
    if family.kind == "symmetric":
        return tuple(range(2, family.n + 1))
    if family.kind == "hypercube":
        return (2,) * family.n
    return (2, family.n)


def poincare_polynomial(family: GroupFamily, q):
    """Length generating function sum_w q^{length(w)}, via the degree product.

    Exact for int/Fraction q (ints are coerced to Fraction); also usable
    with float q.  At q=1 this is the group order.

    >>> poincare_polynomial(symmetric(3), 2)
    Fraction(21, 1)
    >>> poincare_polynomial(hypercube(4), 1)
    Fraction(16, 1)
    """
    if isinstance(q, int):
        q = Fraction(q)
    if q == 1:
        result = q**0  # one of the correct type
        for d in degrees(family):
            result *= d
        return result
    result = q**0
    for d in degrees(family):
        result *= (q**d - 1) / (q - 1)
    return result


if __name__ == "__main__":
    import doctest

    doctest.testmod()
