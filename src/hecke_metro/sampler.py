"""Exact sequential sampling from ``pi``, length-statistic moments, and
simulation-based lower-bound witnesses.

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

`lower_bound_witness` runs the actual Metropolis chains on the hypercube
(vectorised over sample paths, procedural -- no kernel matrices, so ``n``
in the thousands is fine) and compares the empirical mean of the witness
statistic ``T(y) = (n/sqrt(theta)) (1 - |y|(1+theta)/n)`` against its
closed-form evolution.  `symmetric_support_witness` is the deterministic
counterpart for permutations: one scan pass changes the length by at most
``2(n-1)``, so after ``ell`` passes from the identity the chain has zero
mass on lengths above ``2 ell (n-1)`` while ``pi`` concentrates near
``C(n,2)``; Chebyshev turns the moments into an explicit total-variation
lower bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, TypeAlias

from . import coxeter
from .coxeter import GroupElement, GroupFamily, degrees, symmetric

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RandomSource",
    "random_source",
    "MomentReport",
    "mallows_sample",
    "length_moments",
    "hypercube_test_statistic",
    "WitnessReport",
    "lower_bound_witness",
    "SupportWitness",
    "symmetric_support_witness",
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


def hypercube_test_statistic(y, theta) -> float:
    """Witness statistic ``T(y) = (n/sqrt(theta)) (1 - |y|(1+theta)/n)``;
    centred (``E_pi T = 0``) and normalised (``Var_pi T = n``)."""
    theta = float(coxeter.check_theta(theta))
    if isinstance(y, GroupElement) and y.family.kind != "hypercube":
        raise ValueError(f"y must be a hypercube element, got one of {y.family}")
    bits = y.payload if isinstance(y, GroupElement) else tuple(int(b) for b in y)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError(f"y must be a nonempty bit vector, got {y!r}")
    n = len(bits)
    return (n / math.sqrt(theta)) * (1 - sum(bits) * (1 + theta) / n)


# --------------------------------------------------------------------------
# lower-bound witnesses

class WitnessReport(NamedTuple):
    """Empirical versus predicted behaviour of the witness statistic ``T``
    over simulated hypercube chains started at the all-zeros state."""

    n: int
    theta: float
    ell: int
    scan: str
    samples: int
    empirical_mean: float
    empirical_variance: float
    predicted_mean: float
    predicted_variance: float
    standard_error: float
    z_score: float


def lower_bound_witness(
    n: int, theta, ell: int, scan: str, N: int, rng: RandomSource
) -> WitnessReport:
    """Simulate ``N`` independent hypercube Metropolis chains from the
    all-zeros state and compare the empirical mean of ``T`` with its exact
    evolution.

    ``scan="random"`` runs ``ell`` single-site moves (site uniform each
    step); the predictions use ``a = 1 - (1+theta)/n`` and
    ``b = 1 - 2(1+theta)/n``:

        ``E = (n/sqrt(theta)) a^ell``
        ``Var = n + (n(1-theta)/theta) a^ell + (n(n-1)/theta) b^ell
                - (n^2/theta) a^(2 ell)``

    ``scan="systematic"`` runs ``ell`` full passes (sites ``1..n, n..1``):

        ``E = (n/sqrt(theta)) theta^(2 ell)``
        ``Var = n (1 + ((1-theta)/theta) theta^(2 ell)
                - (1/theta) theta^(4 ell))``

    The chains are run procedurally on a boolean array (no matrices), so
    ``n`` in the thousands is reachable.
    """
    theta = float(coxeter.check_theta(theta))
    if scan not in ("random", "systematic"):
        raise ValueError(f"scan must be 'random' or 'systematic', got {scan!r}")
    if n < 1 or N < 2 or ell < 0:
        raise ValueError("need n >= 1, N >= 2, ell >= 0")

    import numpy as np

    state = np.zeros((N, n), dtype=bool)
    rows = np.arange(N)
    if scan == "random":
        for _ in range(ell):
            sites = rng.integers(0, n, size=N)
            current = state[rows, sites]
            accept = ~current | (rng.random(N) < theta)
            state[rows, sites] = np.where(accept, ~current, current)
        a = 1 - (1 + theta) / n
        b = 1 - 2 * (1 + theta) / n
        predicted_mean = (n / math.sqrt(theta)) * a**ell
        predicted_variance = (
            n
            + (n * (1 - theta) / theta) * a**ell
            + (n * (n - 1) / theta) * b**ell
            - (n * n / theta) * a ** (2 * ell)
        )
    else:
        order = list(range(n)) + list(reversed(range(n)))
        for _ in range(ell):
            for i in order:
                current = state[:, i]
                accept = ~current | (rng.random(N) < theta)
                state[:, i] = np.where(accept, ~current, current)
        decay = theta ** (2 * ell)
        predicted_mean = (n / math.sqrt(theta)) * decay
        predicted_variance = n * (
            1 + ((1 - theta) / theta) * decay - (1 / theta) * decay**2
        )

    weights = state.sum(axis=1)
    values = (n / math.sqrt(theta)) * (1 - weights * (1 + theta) / n)
    empirical_mean = float(values.mean())
    empirical_variance = float(values.var(ddof=1))
    standard_error = math.sqrt(max(predicted_variance, 0.0) / N)
    z = (
        (empirical_mean - predicted_mean) / standard_error
        if standard_error > 0
        else 0.0
    )
    return WitnessReport(
        n=n,
        theta=theta,
        ell=ell,
        scan=scan,
        samples=N,
        empirical_mean=empirical_mean,
        empirical_variance=empirical_variance,
        predicted_mean=predicted_mean,
        predicted_variance=predicted_variance,
        standard_error=standard_error,
        z_score=z,
    )


class SupportWitness(NamedTuple):
    """Deterministic support bound for the short scan on permutations.

    After ``ell`` passes from the identity every reachable state has
    length at most ``max_support_length``; the ``pi``-mass above that
    length (lower-bounded by Chebyshev from the exact moments) is then a
    total-variation lower bound."""

    n: int
    theta: Fraction | float
    ell: int
    max_support_length: int
    mean_length: Fraction | float
    variance_length: Fraction | float
    tail_probability_lower_bound: Fraction | float
    tv_lower_bound: Fraction | float


def symmetric_support_witness(n: int, theta, ell: int) -> SupportWitness:
    """Exact witness report for the short scan on the symmetric family
    (one pass moves the length by at most ``2(n-1)``)."""
    theta = coxeter.check_theta(theta)
    if n < 2 or ell < 0:
        raise ValueError("need n >= 2, ell >= 0")
    family = symmetric(n)
    reach = min(2 * ell * (n - 1), math.comb(n, 2))
    moments = length_moments(family, theta)
    slack = moments.mean - reach
    if slack > 0 and moments.variance < slack**2:
        tail = 1 - moments.variance / slack**2
    else:
        tail = Fraction(0) if isinstance(theta, Fraction) else 0.0
    return SupportWitness(
        n=n,
        theta=theta,
        ell=ell,
        max_support_length=reach,
        mean_length=moments.mean,
        variance_length=moments.variance,
        tail_probability_lower_bound=tail,
        tv_lower_bound=tail,
    )
