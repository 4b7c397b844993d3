"""Sampler tests: the sequential construction against the exact stationary
law, length moments, determinism, a goodness-of-fit run, and the two
lower-bound witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import fraction_oracle as oracle
from hecke_metro import chains, coxeter, sampler
from hecke_metro.coxeter import GroupElement, dihedral, hypercube, symmetric
from hecke_metro.sampler import (
    hypercube_test_statistic,
    insertion_distribution,
    length_moments,
    lower_bound_witness,
    mallows_sample,
    random_source,
    symmetric_support_witness,
)

THETAS = [Fraction(1, 2), Fraction(1, 3), Fraction(1)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("theta", THETAS)
def test_insertion_distribution_is_exactly_stationary(n, theta):
    built = insertion_distribution(n, theta)
    target = chains.stationary(symmetric(n), theta)
    assert built.probs == target.probs


def test_insertion_distribution_requires_rational_theta():
    with pytest.raises(ValueError):
        insertion_distribution(4, 0.5)


@pytest.mark.parametrize("theta", THETAS)
def test_insertion_slot_probabilities_sum_to_one_per_stage(theta):
    # stage i inserts into i slots with the truncated-geometric weights
    for i in range(1, 8):
        if theta == 1:
            weights = [Fraction(1, i)] * i
        else:
            weights = [
                theta ** (k - 1) * (1 - theta) / (1 - theta**i)
                for k in range(1, i + 1)
            ]
        assert sum(weights) == 1
        assert all(w >= 0 for w in weights)


@pytest.mark.parametrize(
    "family",
    [symmetric(3), symmetric(5), hypercube(4), dihedral(5), dihedral(8)],
    ids=str,
)
@pytest.mark.parametrize("theta", THETAS)
def test_length_moments_match_enumeration(family, theta):
    pi = chains.stationary(family, theta)
    lengths = [coxeter.length(w) for w in coxeter.enumerate(family)]
    mean = sum((p * l for p, l in zip(pi.probs, lengths)), Fraction(0))
    var = sum(
        (p * (l - mean) ** 2 for p, l in zip(pi.probs, lengths)), Fraction(0)
    )
    report = length_moments(family, theta)
    assert report.mean == mean
    assert report.variance == var


def test_length_moments_at_theta_one_are_the_degree_sums():
    family = symmetric(5)
    report = length_moments(family, Fraction(1))
    assert report.mean == Fraction(sum(d - 1 for d in coxeter.degrees(family)), 2)
    assert report.variance == Fraction(
        sum(d * d - 1 for d in coxeter.degrees(family)), 12
    )


def test_hypercube_mean_is_n_q_over_one_plus_q():
    # each coordinate is an independent Bernoulli(q / (1 + q)), q = 1/theta
    theta = Fraction(1, 3)
    q = 1 / theta
    report = length_moments(hypercube(7), theta)
    assert report.mean == 7 * q / (1 + q)
    assert report.variance == 7 * q / (1 + q) ** 2


@pytest.mark.parametrize(
    "family", [symmetric(4), hypercube(5), dihedral(6)], ids=str
)
def test_sampling_is_deterministic_per_seed(family):
    theta = Fraction(1, 2)
    a = [mallows_sample(family, theta, random_source(11)) for _ in range(5)]
    b = [mallows_sample(family, theta, random_source(11)) for _ in range(5)]
    first = [mallows_sample(family, theta, random_source(12)) for _ in range(5)]
    assert a == b
    assert a != first  # different seed, different stream


@pytest.mark.parametrize(
    "family", [symmetric(4), hypercube(6), dihedral(7)], ids=str
)
@pytest.mark.parametrize("theta", THETAS)
def test_samples_are_valid_group_elements(family, theta):
    rng = random_source(3)
    for _ in range(25):
        w = mallows_sample(family, theta, rng)
        assert w.family == family
        GroupElement(family, w.payload)  # revalidates the payload


@pytest.mark.parametrize("n", [3, 4, 7, 12])
@pytest.mark.parametrize("theta", THETAS + [Fraction(3, 4)])
def test_dihedral_law_from_the_length_formula_is_the_stationary_law(n, theta):
    # payload index 2k + f is the enumeration order, and the law read off
    # the length formula is pi up to float rounding
    family = dihedral(n)
    elements = coxeter.enumerate(family)
    assert [w.payload for w in elements] == [(j // 2, j % 2) for j in range(2 * n)]
    probs = np.diff(sampler._dihedral_cdf(n, float(theta)), prepend=0.0)
    exact = [float(p) for p in chains.stationary(family, theta).probs]
    assert np.allclose(probs, exact, rtol=0, atol=4 * n * np.finfo(float).eps)


def test_uniform_goodness_of_fit_at_theta_one():
    # theta = 1 collapses to the uniform distribution; chi-square GOF on S_4
    family = symmetric(4)
    rng = random_source(7)
    counts = np.zeros(family.order)
    draws = 4800
    for _ in range(draws):
        counts[chains.element_index(family, mallows_sample(family, Fraction(1), rng))] += 1
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_biased_goodness_of_fit_on_the_hypercube():
    # coordinates are independent Bernoulli(q/(1+q)) under pi, q = 1/theta
    theta = Fraction(1, 2)
    family = hypercube(8)
    rng = random_source(5)
    draws = 6000
    ones = np.zeros(8)
    for _ in range(draws):
        ones += mallows_sample(family, theta, rng).payload
    rate = float(1 / (1 + theta))
    result = stats.chisquare(
        np.array([ones, draws - ones]),
        np.array([[draws * rate] * 8, [draws * (1 - rate)] * 8]),
    )
    assert all(p > 0.001 for p in np.atleast_1d(result.pvalue))


# ---------------------------------------------------------------------------
# the separating statistic and the witness reports


def test_statistic_moments_under_stationarity():
    theta = Fraction(1, 2)
    family = hypercube(3)
    pi = chains.stationary(family, theta)
    values = [hypercube_test_statistic(w, theta) for w in coxeter.enumerate(family)]
    mean = sum(float(p) * v for p, v in zip(pi.probs, values))
    second = sum(float(p) * v * v for p, v in zip(pi.probs, values))
    assert math.isclose(mean, 0, abs_tol=1e-12)
    assert math.isclose(second, 3, rel_tol=1e-12)  # Var_pi = n


def test_statistic_accepts_bit_sequences():
    theta = 0.25
    assert hypercube_test_statistic((0, 0, 0, 0), theta) == pytest.approx(
        4 / math.sqrt(theta)
    )


def test_witness_agrees_with_the_exact_chain_at_small_size():
    # exact check: empirical mean of T after ell random-scan moves on n=6
    # against the closed form (n/sqrt(theta)) a^ell, a = 1 - (1+theta)/n
    n, theta, ell = 6, 0.5, 9
    rep = lower_bound_witness(n, theta, ell, "random", 20000, random_source(2))
    a = 1 - (1 + theta) / n
    assert rep.predicted_mean == pytest.approx((n / math.sqrt(theta)) * a**ell)
    assert abs(rep.z_score) < 3
    assert rep.samples == 20000
    assert rep.scan == "random"
    # and the exact distributional mean from kernel evolution agrees
    family = hypercube(n)
    K = chains.random_scan_kernel(family, Fraction(1, 2))
    dist = oracle.evolve(
        K, chains.point_mass(family, coxeter.identity(family)), ell
    )
    exact_mean = sum(
        float(p) * hypercube_test_statistic(w, theta)
        for p, w in zip(dist.probs, coxeter.enumerate(family))
    )
    assert rep.predicted_mean == pytest.approx(exact_mean)


def test_witness_systematic_scan_prediction():
    n, theta, ell = 12, 0.5, 2
    rep = lower_bound_witness(n, theta, ell, "systematic", 8000, random_source(9))
    assert rep.predicted_mean == pytest.approx(
        (n / math.sqrt(theta)) * theta ** (2 * ell)
    )
    assert abs(rep.z_score) < 3


def test_witness_zero_passes_is_deterministic():
    rep = lower_bound_witness(10, 0.5, 0, "systematic", 100, random_source(0))
    assert rep.predicted_variance == 0
    assert rep.z_score == 0.0
    assert math.isclose(rep.empirical_mean, rep.predicted_mean, rel_tol=1e-12)


def test_witness_rejects_unknown_scans():
    with pytest.raises(ValueError):
        lower_bound_witness(5, 0.5, 1, "diagonal", 10, random_source(0))


def test_support_witness_confines_early_passes():
    w = symmetric_support_witness(30, 0.1, 3)
    assert w.max_support_length == min(2 * 3 * 29, 30 * 29 // 2)
    assert w.tv_lower_bound == pytest.approx(0.9999469088058668, rel=1e-12)
    # moments quoted in the report match the closed forms
    moments = length_moments(symmetric(30), Fraction(1, 10))
    assert w.mean_length == pytest.approx(float(moments.mean))
    assert w.variance_length == pytest.approx(float(moments.variance))


def test_support_witness_degrades_to_zero_once_the_scan_reaches_everything():
    w = symmetric_support_witness(4, 0.5, 50)
    assert w.max_support_length == 6  # the full inversion range
    assert w.tv_lower_bound == 0


@given(
    n=st.integers(min_value=2, max_value=20),
    ell=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_support_witness_bound_is_a_probability(n, ell):
    w = symmetric_support_witness(n, 0.25, ell)
    assert 0 <= w.tv_lower_bound <= 1
    assert w.max_support_length <= n * (n - 1) // 2
