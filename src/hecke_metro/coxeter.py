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

Everything here is exact: lengths and orders are ints, probabilities are
`fractions.Fraction`.  Enumeration order is lexicographic on the payload
and therefore stable across runs; :func:`action_tables` gives the action
of every generator in that order, and :func:`check_theta` and
:func:`check_q` are the parameter checks all layers share.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "ActionTables",
    "CapExceededError",
    "GroupElement",
    "GroupFamily",
    "action_tables",
    "apply_generator",
    "check_q",
    "check_theta",
    "coset_probability",
    "degrees",
    "dihedral",
    "enumerate",
    "enumeration_cap",
    "generators",
    "hypercube",
    "identity",
    "inverse",
    "length",
    "longest_element",
    "min_coset_representatives",
    "multiply",
    "parabolic_elements",
    "poincare_polynomial",
    "reduced_word",
    "right_apply_generator",
    "symmetric",
]

DEFAULT_ENUMERATION_CAP = 50_000

_KINDS = ("symmetric", "hypercube", "dihedral")


class CapExceededError(ValueError):
    """Raised when a full enumeration would exceed the configured cap."""


def enumeration_cap() -> int:
    """Current enumeration cap (env var HECKE_METRO_CAP overrides)."""
    return int(os.environ.get("HECKE_METRO_CAP", DEFAULT_ENUMERATION_CAP))


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


def inverse(w: GroupElement) -> GroupElement:
    fam = w.family
    if fam.kind == "symmetric":
        inv = [0] * fam.n
        for pos, val in zip(range(1, fam.n + 1), w.payload):
            inv[val - 1] = pos
        return GroupElement(fam, tuple(inv))
    if fam.kind == "hypercube":
        return w
    k, f = w.payload
    return w if f == 1 else GroupElement(fam, ((-k) % fam.n, 0))


def _generator_element(family: GroupFamily, i: int) -> GroupElement:
    if i not in generators(family):
        raise ValueError(f"generator index {i} out of range for {family}")
    if family.kind == "symmetric":
        p = list(range(1, family.n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        return GroupElement(family, tuple(p))
    if family.kind == "hypercube":
        return GroupElement(family, tuple(1 if j == i - 1 else 0 for j in range(family.n)))
    # dihedral: s_1 = (0,1), s_2 = r^{n-1} s_1 = (n-1, 1)
    return GroupElement(family, (0, 1) if i == 1 else (family.n - 1, 1))


def apply_generator(i: int, w: GroupElement) -> GroupElement:
    """Left action s_i * w."""
    fam = w.family
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
    return multiply(_generator_element(fam, i), w)


def right_apply_generator(w: GroupElement, i: int) -> GroupElement:
    """Right action w * s_i."""
    fam = w.family
    if fam.kind == "symmetric":
        # swap *positions* i and i+1
        p = list(w.payload)
        p[i - 1], p[i] = p[i], p[i - 1]
        return GroupElement(fam, tuple(p))
    if fam.kind == "hypercube":
        return apply_generator(i, w)
    return multiply(w, _generator_element(fam, i))


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


@lru_cache(maxsize=None)
def _enumerate_cached(family: GroupFamily) -> tuple[GroupElement, ...]:
    if family.kind == "symmetric":
        payloads: Iterable[tuple[int, ...]] = itertools.permutations(
            range(1, family.n + 1)
        )
    elif family.kind == "hypercube":
        payloads = itertools.product((0, 1), repeat=family.n)
    else:
        payloads = ((k, f) for k in range(family.n) for f in (0, 1))
    return tuple(GroupElement(family, p) for p in payloads)


def enumerate(family: GroupFamily) -> tuple[GroupElement, ...]:
    """All elements in lexicographic payload order.

    Raises CapExceededError when the group order exceeds the cap
    (default 50000; override with the HECKE_METRO_CAP env var).
    """
    if family.order > enumeration_cap():
        raise CapExceededError(
            f"|{family}| = {family.order} exceeds enumeration cap {enumeration_cap()}"
        )
    return _enumerate_cached(family)


class ActionTables(NamedTuple):
    """The left action of the simple reflections, by enumeration index.

    ``perms[i - 1][k]`` is the index of ``s_i w`` for the element
    ``w = elements[k]``, and ``ups[i - 1][k]`` says whether that move
    lengthens ``w``; ``lengths[k]`` is the length of ``w``.
    """

    elements: tuple[GroupElement, ...]
    index: dict[GroupElement, int]
    lengths: list[int]
    perms: list[list[int]]
    ups: list[list[bool]]


@lru_cache(maxsize=None)
def action_tables(family: GroupFamily) -> ActionTables:
    """Index permutations and up-masks of every generator acting on the left."""
    elements = enumerate(family)
    index = {w: k for k, w in zip(range(len(elements)), elements)}
    lengths, perms = _left_tables(family, [w.payload for w in elements])
    ups = [[lengths[t] > l for t, l in zip(perm, lengths)] for perm in perms]
    return ActionTables(elements, index, lengths, perms, ups)


def _left_tables(
    family: GroupFamily, payloads: list[tuple[int, ...]]
) -> tuple[list[int], list[list[int]]]:
    """Lengths and, per generator, the index of ``s_i w``, from the payloads
    in enumeration order by each family's arithmetic."""
    n = family.n
    if family.kind == "symmetric":
        # The lexicographic index of w is its Lehmer code read in the
        # factorial base: digit j counts the later positions holding smaller
        # values, and the length of w is the sum of the digits.
        lengths = [0]
        for m in range(2, n + 1):  # the first digit runs slowest
            lengths = [c + l for c in range(m) for l in lengths]
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
        # the index reads the bits as a binary number, coordinate 1 highest
        order = 1 << n
        lengths = [k.bit_count() for k in range(order)]
        return lengths, [[k ^ (1 << (n - i)) for k in range(order)] for i in range(1, n + 1)]
    # dihedral: (k, f) sits at index 2k + f; s_1 = (0, 1) and s_2 = (n - 1, 1)
    # send it to (-k, 1 - f) and (n - 1 - k, 1 - f)
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


def _validate_parabolic(family: GroupFamily, J: Iterable[int]) -> tuple[int, ...]:
    J = tuple(sorted(set(J)))
    for j in J:
        if j not in generators(family):
            raise ValueError(f"parabolic index {j} out of range for {family}")
    return J


def parabolic_elements(family: GroupFamily, J: Iterable[int]) -> tuple[GroupElement, ...]:
    """Elements of the standard parabolic subgroup W_J (closure under s_j, j in J)."""
    J = _validate_parabolic(family, J)
    seen = {identity(family)}
    frontier = [identity(family)]
    while frontier:
        nxt = []
        for w in frontier:
            for j in J:
                u = right_apply_generator(w, j)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen, key=lambda e: e.payload))


def min_coset_representatives(
    family: GroupFamily, J: Iterable[int]
) -> tuple[GroupElement, ...]:
    """Minimal-length representatives of the left cosets x W_J.

    x is minimal in its coset iff every j in J takes it up:
    length(x s_j) > length(x).  Returned in enumeration order; there are
    exactly |W| / |W_J| of them.
    """
    J = _validate_parabolic(family, J)
    reps = []
    for w in enumerate(family):
        lw = length(w)
        if all(length(right_apply_generator(w, j)) > lw for j in J):
            reps.append(w)
    return tuple(reps)


def coset_probability(family: GroupFamily, J: Iterable[int], x: GroupElement, q) -> Fraction:
    """Mass q^{length(x)} P_{W_J}(q) / P_W(q) of the coset x W_J.

    x must be the minimal-length representative of its coset.
    """
    J = _validate_parabolic(family, J)
    if isinstance(q, int):
        q = Fraction(q)
    lx = length(x)
    if any(length(right_apply_generator(x, j)) <= lx for j in J):
        raise ValueError(f"{x.payload} is not a minimal coset representative for J={J}")
    sub_poincare = sum((q ** length(u) for u in parabolic_elements(family, J)), q * 0)
    return q**lx * sub_poincare / poincare_polynomial(family, q)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
