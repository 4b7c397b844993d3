"""Exact sequential sampling from ``pi`` and the moments of the length
statistic, the two things ``sample`` runs.

The stationary measure ``pi(w) ~ q^len(w)`` factors over a sequential
construction, which gives a direct sampler (no Markov chain, no burn-in):

* symmetric family: build the one-line word by inserting the symbols
  ``1, 2, ..., n`` in turn; inserting ``i`` into slot ``k`` (1-indexed from
  the left, the leftmost slot creating ``i - 1`` new inversions) happens
  with probability ``theta^(k-1) (1 - theta) / (1 - theta^i)``, uniform at
  ``theta = 1``.  The product of the stage weights telescopes to ``pi``.
* hypercube: coordinates are independent, each set with probability
  ``1/(1 + theta)``.
* dihedral: the inverse of the closed-form CDF of ``pi`` over the ``2n``
  payloads ``(k, f)``, read off the length formula: one uniform a draw, no
  table, no enumeration and no cap.

`length_moments` evaluates the closed product-form moments of ``len(w)``
under ``pi``: with ``q = 1/theta`` and degrees ``d_1..d_r``,

    ``E = r q/(1-q) - sum_i d_i q^(d_i)/(1 - q^(d_i))``
    ``Var = r q/(1-q)^2 - sum_i d_i^2 q^(d_i)/(1 - q^(d_i))^2``

with the ``q = 1`` limits ``sum (d_i - 1)/2`` and ``sum (d_i^2 - 1)/12``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, TypeAlias

from . import coxeter
from .coxeter import GroupElement, GroupFamily, degrees

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RandomSource",
    "random_source",
    "MomentReport",
    "mallows_sample",
    "length_moments",
]

# numpy's PCG64 stream; numpy is imported by the functions that draw, on
# first use, so the exact paths of the package never load it
RandomSource: TypeAlias = "np.random.Generator"


def random_source(seed: int | None = None) -> RandomSource:
    """Seeded deterministic stream of uniforms (same seed, same draws)."""
    import numpy as np

    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# sampling

def _insertion_slot(i: int, theta: float, u: float) -> int:
    """Slot k in 1..i with P(k) proportional to theta^(k-1), via the
    truncated-geometric inverse CDF applied to the uniform ``u``."""
    if theta == 1.0:
        return min(int(u * i) + 1, i)
    total = (1.0 - theta**i) / (1.0 - theta)
    target = u * total
    acc = 0.0
    power = 1.0
    for k in range(1, i + 1):
        acc += power
        if target < acc:
            return k
        power *= theta
    return i


def _dihedral_index(n: int, theta: float, u: float) -> int:
    """The first payload index ``j = 2k + f`` of dihedral(n) at which the
    cumulative ``pi`` exceeds the uniform ``u``, in O(1) time and memory.

    The element at j has length ``min(j, 2n - j)``, so its weight
    ``r^(n - len)``, ``r = theta``, is ``r^(n - j)`` up to the peak j = n and
    ``r^(j - n)`` past it: the cumulative weight is two geometric sums,
    each inverted by a logarithm.  With ``c_k = 1 - r^k``, the weight up to
    j <= n is ``(r^(n - j) - r^(n + 1)) / (1 - r)``, the weight past j >= n
    is ``(r^(j + 1 - n) - r^n) / (1 - r)`` and the total is
    ``(1 + r) c_n / (1 - r)``.  Every difference is formed from the c_k,
    by ``expm1`` and ``log1p``, so theta near 1 loses no digits.
    """
    if theta == 1.0:
        return min(int(u * 2 * n), 2 * n - 1)
    lam = -math.log(theta)
    c_n, c_n1 = -math.expm1(-n * lam), -math.expm1(-(n + 1) * lam)
    # up to the peak: the largest m = n - j with r^m > 1 - below
    below = c_n1 - u * (1 + theta) * c_n
    if below > 0:
        m = math.ceil(-math.log1p(-below) / lam) - 1 if below < 1 else n
        return n - min(m, n)
    # past it: the smallest m = j + 1 - n with r^m < 1 - above
    above = c_n * (u * (1 + theta) - theta)
    return min(max(n + math.floor(-math.log1p(-above) / lam), n + 1), 2 * n - 1)


def mallows_sample(family: GroupFamily, theta, rng: RandomSource) -> GroupElement:
    """One exact draw from ``pi`` on the family (see the module notes for
    the per-family constructions).  Deterministic given the ``rng`` state."""
    theta = coxeter.check_theta(theta)
    th = float(theta)
    n = family.n
    if family.kind == "symmetric":
        word = [1]
        for i in range(2, n + 1):
            k = _insertion_slot(i, th, rng.random())
            word.insert(k - 1, i)
        return GroupElement(family, tuple(word))
    if family.kind == "hypercube":
        bits = rng.random(n) < 1.0 / (1.0 + th)
        return GroupElement(family, tuple(int(b) for b in bits))
    if family.kind == "dihedral":
        j = _dihedral_index(n, th, rng.random())
        return GroupElement(family, (j // 2, j % 2))
    raise AssertionError(f"unhandled family kind {family.kind!r}")


# --------------------------------------------------------------------------
# moments of the length statistic

class MomentReport(
    NamedTuple("MomentReport", [("mean", Fraction | float), ("variance", Fraction | float)])
):
    """Mean and variance of ``len(w)`` under ``pi``."""

    __slots__ = ()

    def __new__(cls, mean: Fraction | float, variance: Fraction | float) -> MomentReport:
        if variance < 0:
            raise ValueError(f"variance must be nonnegative: {variance}")
        return super().__new__(cls, mean, variance)


def length_moments(family: GroupFamily, theta) -> MomentReport:
    """Closed-form moments of the length under ``pi`` (exact for rational
    ``theta``; ``theta = 1`` handled as the uniform limit)."""
    theta = coxeter.check_theta(theta)
    ds = degrees(family)
    if theta == 1:
        half = Fraction(1, 2) if isinstance(theta, Fraction) else 0.5
        twelfth = Fraction(1, 12) if isinstance(theta, Fraction) else 1 / 12
        return MomentReport(
            mean=sum((d - 1) for d in ds) * half,
            variance=sum((d * d - 1) for d in ds) * twelfth,
        )
    q = 1 / theta
    mean = sum(q / (1 - q) - d * q**d / (1 - q**d) for d in ds)
    variance = sum(
        q / (1 - q) ** 2 - d * d * q**d / (1 - q**d) ** 2 for d in ds
    )
    return MomentReport(mean=mean, variance=variance)
