"""Block-data tests: partitions, tableaux, generic degrees, the closed-form
chi-square expressions against brute-force kernel evolution, and the upper
bounds (frozen regression values plus shape properties).

The 2x2 matrix model for the dihedral blocks lives only here: the library
stores (d, c, t) per block, and these tests rebuild the explicit matrices
to confirm that data independently.
"""

import doctest
import functools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import (
    conjugate_partition,
    content_sum,
    hook_lengths,
    lemma_7_2_bounds,
    short_scan_trace_symmetric,
)
from hecke_metro import chains, coxeter, spectral
from hecke_metro.coxeter import CapExceededError, dihedral, hypercube, symmetric
from hecke_metro.spectral import (
    StandardTableau,
    bound_dihedral_long_scan,
    bound_dihedral_random_scan,
    bound_hypercube,
    bound_symmetric_scans,
    bound_theorem_1_4,
    content_of_n_box,
    dihedral_random_scan_chisq,
    irreps,
    lead_constants,
    long_scan_avg_chisq,
    long_scan_chisq,
    long_scan_trace,
    partitions,
    random_scan_chisq_hypercube,
    short_scan_chisq_symmetric,
    standard_tableaux,
    sum_d_t,
)

FAMILIES = [symmetric(3), symmetric(4), symmetric(5), hypercube(4), dihedral(5), dihedral(6)]


def test_module_doctests():
    failed, attempted = doctest.testmod(spectral)
    assert attempted > 0
    assert failed == 0


# ---------------------------------------------------------------------------
# partitions and tableaux


def test_partition_counts_match_the_partition_function():
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}
    for n, p in expected.items():
        assert len(partitions(n)) == p


def test_partitions_of_four_in_descending_lex_order():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_conjugation_is_an_involution_negating_content():
    for n in range(1, 9):
        for lam in partitions(n):
            assert conjugate_partition(conjugate_partition(lam)) == lam
            assert content_sum(conjugate_partition(lam)) == -content_sum(lam)


def test_hook_lengths_of_421():
    assert sorted(hook_lengths((4, 2, 1))) == [1, 1, 1, 2, 3, 4, 6]
    assert math.factorial(7) // math.prod(hook_lengths((4, 2, 1))) == 35


def test_content_sums():
    assert content_sum((3,)) == 3
    assert content_sum((1, 1, 1)) == -3
    assert content_sum((2, 1)) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_tableau_counts_match_the_hook_length_formula(n):
    for lam in partitions(n):
        d = math.factorial(n) // math.prod(hook_lengths(lam))
        assert len(standard_tableaux(lam)) == d


def test_tableaux_of_21_and_their_last_box_contents():
    tabs = standard_tableaux((2, 1))
    contents = sorted(content_of_n_box(t) for t in tabs)
    assert contents == [-1, 1]


def test_square_of_tableau_counts_sums_to_group_order():
    for n in range(2, 8):
        total = sum(len(standard_tableaux(lam)) ** 2 for lam in partitions(n))
        assert total == math.factorial(n)


def test_tableau_validation():
    StandardTableau(((1, 3), (2,)))  # fine
    with pytest.raises(ValueError):
        StandardTableau(((2, 1), (3,)))  # rows must increase
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (4,)))  # entries must be exactly 1..n
    with pytest.raises(ValueError):
        StandardTableau(((1, 2, 3), (4, 5, 6, 7)))  # shape not a partition


@pytest.mark.parametrize(
    "rows, message",
    [
        (((2, 1), (3,)), "rows must increase left to right"),
        (((1, 2), (4,)), "entries must be exactly 1..n"),
        (((1, 1), (2,)), "entries must be exactly 1..n"),
        (((1, 3), (2, 4), (5,), ()), "partition parts must be positive: (2, 2, 1, 0)"),
        (((2, 3), (1, 4)), "columns must increase top to bottom"),
        (((1,), (2, 3)), "partition parts must be weakly decreasing: (1, 2)"),
        ((), "partition parts must be positive: ()"),
    ],
)
def test_tableau_refuses_a_non_standard_filling(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StandardTableau(rows)


def test_spectral_records_refuse_a_new_field_value():
    tab = StandardTableau(((1, 3), (2,)))
    rep = irreps(symmetric(3))[0]
    row = lead_constants(10, 0.5)
    records = [
        (tab, ("rows",)),
        (rep, ("label", "d", "c", "t_of_q")),
        (row, ("theta", "random_scan", "systematic_scan")),
    ]
    for record, fields in records:
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
    assert (tab.shape, tab.size) == ((2, 1), 3)
    assert StandardTableau(rows=((1, 2),)) == StandardTableau(((1, 2),))


def test_partition_count_is_the_number_listed():
    big = 10**9
    assert [spectral._partition_count(n, big) for n in range(31)] == [
        (n, len(partitions(n))) for n in range(31)
    ]
    # at the default cap S_41 is summed and S_42 refused
    cap = coxeter.DEFAULT_ENUMERATION_CAP
    assert spectral._partition_count(41, cap) == (41, 44583)
    assert spectral._partition_count(42, cap) == (42, 53174)


@pytest.mark.parametrize("n", [43, 80, 1000], ids=str)
def test_partition_count_stops_at_the_first_count_past_the_cap(n):
    """The recurrence stops at p(42), so its cost does not grow with n."""
    assert spectral._partition_count(n, coxeter.DEFAULT_ENUMERATION_CAP) == (42, 53174)
    assert spectral._partition_count(n, 100) == (13, 101)


def test_symmetric_closed_forms_refuse_past_the_cap_before_listing(monkeypatch):
    monkeypatch.setenv("HECKE_METRO_CAP", "77")  # p(12) = 77, p(13) = 101
    assert long_scan_chisq(symmetric(12), 0.5, 1) > 0
    listed = []
    monkeypatch.setattr(spectral, "partitions", lambda n: listed.append(n) or [])
    for form in (
        lambda: long_scan_chisq(symmetric(13), 0.5, 1),
        lambda: short_scan_chisq_symmetric(13, Fraction(1, 2), 1),
        lambda: irreps(symmetric(13)),
    ):
        with pytest.raises(CapExceededError, match=r"p\(13\) = 101 .*cap 77"):
            form()
    with pytest.raises(CapExceededError, match=r"p\(10000\) >= p\(13\) = 101 .*cap 77"):
        irreps(symmetric(10**4))
    assert listed == []


def test_tableau_enumeration_respects_the_cap(monkeypatch):
    monkeypatch.setenv("HECKE_METRO_CAP", "100")
    with pytest.raises(CapExceededError):
        standard_tableaux((4, 3, 2))  # dimension 168 > 100


def test_tableau_refusal_forms_no_count_past_the_cap(monkeypatch):
    """The count is multiplied up one factor k / h_(k) at a time, and only
    until it passes the cap, for a shape of 300001 boxes."""
    monkeypatch.setenv("HECKE_METRO_CAP", "100")
    factors = []
    real = spectral.Fraction

    def spy(*args):
        factors.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "Fraction", spy)
    with pytest.raises(CapExceededError, match=r"\(300000, 1\) has at least 101 .*cap 100"):
        standard_tableaux((300000, 1))
    # the sorted hooks are 1, 1, 2, 3, ..., so the product passes 100 at k = 101
    assert len(factors) == 1 + 101 and factors[-1] == (101, 100)


def test_a_one_row_shape_of_2000_boxes_has_one_tableau():
    (tab,) = standard_tableaux((2000,))
    assert tab.rows == (tuple(range(1, 2001)),)


# ---------------------------------------------------------------------------
# block data


def test_s3_block_constants():
    reps = {rep.label: rep for rep in irreps(symmetric(3))}
    assert reps[(3,)].d == 1 and reps[(3,)].c == 3
    assert reps[(2, 1)].d == 2 and reps[(2, 1)].c == 0
    assert reps[(1, 1, 1)].d == 1 and reps[(1, 1, 1)].c == -3
    q = Fraction(2)
    assert reps[(3,)].t_of_q(q) == 1
    assert reps[(2, 1)].t_of_q(q) == 6  # q(1+q)
    assert reps[(1, 1, 1)].t_of_q(q) == 8  # q^3


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_block_invariants(family):
    reps = irreps(family)
    w0_length = coxeter.length(coxeter.longest_element(family))
    assert sum(rep.d**2 for rep in reps) == family.order
    trivial = reps[0]
    assert trivial.d == 1 and trivial.c == w0_length
    assert trivial.t_of_q(Fraction(7, 2)) == 1
    for rep in reps:
        assert abs(rep.c) <= w0_length


# the dihedral sum runs over the nontrivial roots of unity; q = 1 is where
# its Poisson-kernel form would have a pole without the [n]_q factor
@pytest.mark.parametrize(
    "family", FAMILIES + [dihedral(n) for n in (4, 7, 12, 41, 97)], ids=str
)
@pytest.mark.parametrize(
    "q", [Fraction(2), Fraction(1, 3), Fraction(7, 5), Fraction(1), Fraction(10, 9)]
)
def test_generic_degrees_sum_to_the_poincare_polynomial(family, q):
    assert sum_d_t(family, q) == coxeter.poincare_polynomial(family, q)


def test_sign_block_generic_degree_is_q_to_the_longest_length():
    q = Fraction(3)
    for family in (symmetric(4), dihedral(7)):
        reps = irreps(family)
        w0_length = coxeter.length(coxeter.longest_element(family))
        sign = min(reps, key=lambda rep: rep.c)
        assert sign.c == -w0_length
        assert sign.t_of_q(q) == q**w0_length


def test_hypercube_blocks_are_indexed_by_bit_vectors():
    reps = irreps(hypercube(3))
    assert [rep.label for rep in reps[:4]] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]
    for rep in reps:
        weight = sum(rep.label)
        assert rep.d == 1
        assert rep.c == 3 - 2 * weight
        assert rep.t_of_q(Fraction(5)) == 5**weight


# ---------------------------------------------------------------------------
# the dihedral 2x2 matrix model (tests only; validates the stored block data)


def _dihedral_block_matrices(n, lam, q):
    """Explicit 2x2 images of the two deformed generators.

    xi is the primitive phase of the block; a and d solve a + d = s and
    -a/xi - d*xi = s with s = sqrt(q) - 1/sqrt(q), which is exactly the
    statement that both generator images have trace q - 1 (eigenvalues q
    and -1).  Each image has determinant -q by construction, so the
    deformed quadratic relation follows; the braid relation is the part
    worth checking numerically.
    """
    xi = np.exp(2j * np.pi * lam / n)
    s = math.sqrt(q) - 1 / math.sqrt(q)
    a = s * (xi + 1) / (xi - 1 / xi)
    d = s - a
    t1 = math.sqrt(q) * np.array([[-d * xi, (1 + a * d) * xi], [1 / xi, -a / xi]])
    t2 = math.sqrt(q) * np.array([[a, 1 + a * d], [1, d]])
    # T~ = q^{-length} T rescales each generator by 1/q
    return t1 / q, t2 / q


@pytest.mark.parametrize("n", [4, 5, 6, 7, 9])
@pytest.mark.parametrize("theta", [0.5, 0.25, 0.9])
def test_dihedral_two_dimensional_blocks_against_matrices(n, theta):
    q = 1 / theta
    eye = np.eye(2)
    for lam in range(1, (n + 1) // 2):
        m1, m2 = _dihedral_block_matrices(n, lam, q)
        # deformed quadratic relation
        for m in (m1, m2):
            assert np.allclose(m @ m, (1 - theta) * m + theta * eye, atol=1e-12)
        # braid relation: alternating words of length n agree
        w1, w2 = eye, eye
        for k in range(n):
            w1 = w1 @ (m1 if k % 2 == 0 else m2)
            w2 = w2 @ (m2 if k % 2 == 0 else m1)
        assert np.allclose(w1, w2, atol=1e-12)
        # the squared longest element acts as the scalar theta^{n - c} = theta^n
        w0sq = eye
        for k in range(2 * n):
            w0sq = w0sq @ (m1 if k % 2 == 0 else m2)
        assert np.allclose(w0sq, theta**n * eye, atol=1e-12)
        # eigenvalue pair of the averaged generator matches the closed form
        avg = (m1 + m2) / 2
        for ell in (1, 2, 3):
            power = np.linalg.matrix_power(avg, 2 * ell)
            plus = ((theta + 2 * math.cos(math.pi * lam / n) * math.sqrt(theta) - 1) / 2)
            minus = ((theta - 2 * math.cos(math.pi * lam / n) * math.sqrt(theta) - 1) / 2)
            assert np.isclose(np.trace(power).real, plus ** (2 * ell) + minus ** (2 * ell))
        # and the stored generic degree matches the xi-form
        stored = next(rep for rep in irreps(dihedral(n)) if rep.label == lam)
        xi = np.exp(2j * np.pi * lam / n)
        t_xi = (
            (q**n - 1)
            / (q - 1)
            * ((1 - xi) * (1 - 1 / xi))
            / ((q - xi) * (q - 1 / xi))
            * q
            * (q + 1)
            / n
        )
        assert np.isclose(float(stored.t_of_q(q)), t_xi.real)


# ---------------------------------------------------------------------------
# closed forms against brute force (single instances; grids live in the
# acceptance suite)


def brute_chisq(family, theta, kernel, ell, start=None):
    if start is None:
        start = coxeter.identity(family)
    dist = oracle.evolve(kernel, chains.point_mass(family, start), ell)
    return chains.chi_square(dist, chains.stationary(family, theta))


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(9, 10)])
def test_long_scan_chisq_matches_kernels_exactly(theta):
    for family in (symmetric(4), hypercube(3), dihedral(5), dihedral(6)):
        K = chains.scan_kernel(family, theta, chains.long_recipe(family))
        sums = chains.power_sums(family, theta, chains.long_recipe(family), 2)
        for ell in (1, 2):
            assert long_scan_chisq(family, theta, ell) == brute_chisq(
                family, theta, K, ell
            )
            assert long_scan_avg_chisq(family, theta, ell) == sums[ell - 1][1]


def test_long_scan_chisq_from_an_arbitrary_hypercube_start():
    family = hypercube(4)
    theta = Fraction(1, 3)
    start = coxeter.GroupElement(family, (1, 0, 1, 1))
    K = chains.scan_kernel(family, theta, chains.long_recipe(family))
    for ell in (1, 2):
        assert long_scan_chisq(family, theta, ell, start) == brute_chisq(
            family, theta, K, ell, start
        )


def test_long_scan_chisq_rejects_non_identity_starts_elsewhere():
    family = symmetric(4)
    with pytest.raises(ValueError):
        long_scan_chisq(
            family, Fraction(1, 2), 1, coxeter.longest_element(family)
        )


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_short_scan_chisq_for_s2_is_theta_power(theta, ell):
    assert short_scan_chisq_symmetric(2, theta, ell) == theta ** (4 * ell - 1)


def test_short_scan_chisq_matches_kernels_exactly():
    theta = Fraction(1, 3)
    for n in (3, 4):
        family = symmetric(n)
        K = chains.scan_kernel(family, theta, chains.short_recipe(family))
        sums = chains.power_sums(family, theta, chains.short_recipe(family), 2)
        for ell in (1, 2):
            assert short_scan_chisq_symmetric(n, theta, ell) == brute_chisq(
                family, theta, K, ell
            )
            assert short_scan_chisq_symmetric(n, theta, ell, averaged=True) == (
                sums[ell - 1][1]
            )


def test_random_scan_chisq_hypercube_matches_kernels_exactly():
    theta = Fraction(1, 2)
    family = hypercube(4)
    K = chains.scan_kernel(family, theta, "random")
    for start in (None, coxeter.GroupElement(family, (1, 1, 0, 0))):
        for ell in (1, 3):
            assert random_scan_chisq_hypercube(4, theta, ell, start) == brute_chisq(
                family, theta, K, ell, start
            )


def test_dihedral_random_scan_chisq_matches_kernels_closely():
    theta = 0.5
    family = dihedral(6)
    K = chains.scan_kernel(family, Fraction(1, 2), "random")
    sums = chains.power_sums(family, Fraction(1, 2), "random", 2)
    for ell in (1, 2):
        exact = brute_chisq(family, Fraction(1, 2), K, ell)
        assert math.isclose(
            dihedral_random_scan_chisq(6, theta, ell), float(exact), rel_tol=1e-12
        )
        _, averaged = sums[ell - 1]
        assert math.isclose(
            dihedral_random_scan_chisq(6, theta, ell, averaged=True),
            float(averaged),
            rel_tol=1e-12,
        )


# The float dihedral random form bit for bit at l = 1, 5, 10.  Its series
# 1 + theta + ... + theta^(n-1) is summed one power at a time; the builtin
# sum() gave other last bits from Python 3.12 on, where it is compensated.
DIHEDRAL_RANDOM_HEX = {
    (200, 0.75): ["0x1.51c0519c763dap+84", "0x1.2b42049e5b6a5p+82", "0x1.1e317ff6e82c7p+81"],
    (12, 0.3): ["0x1.ffe500afeac7bp+18", "0x1.1f94cd205fd52p+15", "0x1.6b6351b8913b6p+12"],
}


@pytest.mark.parametrize("n, theta", list(DIHEDRAL_RANDOM_HEX), ids=str)
def test_float_dihedral_random_form_keeps_its_bits_on_every_python(n, theta):
    got = [dihedral_random_scan_chisq(n, theta, ell).hex() for ell in (1, 5, 10)]
    assert got == DIHEDRAL_RANDOM_HEX[n, theta]


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_long_scan_traces_match_kernel_traces(family):
    theta = Fraction(1, 2)
    sums = chains.power_sums(family, theta, chains.long_recipe(family), 5)
    for m, (trace, _) in enumerate(sums, start=1):
        assert long_scan_trace(family, theta, m) == trace


def test_short_scan_traces_match_kernel_traces():
    theta = Fraction(2, 5)
    for n in (3, 4):
        family = symmetric(n)
        sums = chains.power_sums(family, theta, chains.short_recipe(family), 5)
        for m, (trace, _) in enumerate(sums, start=1):
            assert short_scan_trace_symmetric(n, theta, m) == trace


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize(
    "theta", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)], ids=str
)
def test_symmetric_closed_forms_equal_the_tableau_oracle(n, theta):
    # partition-scale sums against the term-by-term Fraction forms, the
    # short scan summed over every standard tableau
    family = symmetric(n)
    for ell in range(4):
        assert long_scan_chisq(family, theta, ell) == oracle.long_scan_chisq(n, theta, ell)
        assert long_scan_avg_chisq(family, theta, ell) == oracle.long_scan_avg_chisq(
            n, theta, ell
        )
        for averaged in (False, True):
            assert short_scan_chisq_symmetric(
                n, theta, ell, averaged=averaged
            ) == oracle.short_scan_chisq(n, theta, ell, averaged=averaged)
    for m in range(1, 6):
        assert long_scan_trace(family, theta, m) == oracle.long_scan_trace(n, theta, m)
        assert short_scan_trace_symmetric(n, theta, m) == oracle.short_scan_trace(
            n, theta, m
        )
    assert sum_d_t(family, 1 / theta) == oracle.sum_d_t(n, 1 / theta)


def _ulps(got, exact):
    """The distance of ``got`` from ``exact`` in units in the last place of
    ``float(exact)``, the correctly rounded value."""
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("n", [12, 20])
@pytest.mark.parametrize("theta", [0.5, 0.75, 0.25])
def test_float_long_scan_chisq_is_the_block_by_block_float_sum(n, theta):
    # the float form sums the blocks' items with fsum: within 16 ulps of the
    # oracle's exact sum at the float's binary value
    for ell in range(6):
        exact = oracle.long_scan_chisq(n, Fraction(theta), ell)
        assert _ulps(long_scan_chisq(symmetric(n), theta, ell), exact) <= 16


@pytest.mark.parametrize("n", [6, 8, 9])
def test_symmetric_float_forms_are_within_16_ulps_of_the_exact_value(n):
    # each exact value at the float's binary theta; the grid holds terms
    # whose theta^k underflows while the generic degree beside it is large
    # (S_8 long at theta = 0.1, l = 20)
    family = symmetric(n)
    forms = [
        functools.partial(long_scan_chisq, family),
        functools.partial(long_scan_avg_chisq, family),
        functools.partial(short_scan_chisq_symmetric, n),
        functools.partial(short_scan_chisq_symmetric, n, averaged=True),
    ]
    for theta in (0.3, 0.1, 0.999, 1e-3, (math.sqrt(5) - 1) / 2, 0.5):
        for ell in (0, 1, 2, 5, 20):
            for form in forms:
                assert _ulps(form(theta, ell), form(Fraction(theta), ell)) <= 16
            if ell:
                exact = long_scan_trace(family, Fraction(theta), ell)
                assert _ulps(long_scan_trace(family, theta, ell), exact) <= 16
        for rep in irreps(family):
            assert _ulps(rep.t_of_q(1 / theta), rep.t_of_q(Fraction(1 / theta))) <= 16


def test_symmetric_float_forms_are_inf_exactly_where_the_exact_value_overflows():
    # nine neighbouring floats around the argument where each value passes
    # the largest float, so both sides are met
    forms = [
        (lambda theta: long_scan_chisq(symmetric(8), theta, 0), 9.792712754538307e-12),
        (lambda theta: short_scan_chisq_symmetric(10, theta, 1), 1.0592125195371732e-11),
        (irreps(symmetric(8))[-1].t_of_q, 102116749982.17538),
    ]
    for form, middle in forms:
        x = middle
        for _ in range(4):
            x = math.nextafter(x, 0)
        seen = set()
        for _ in range(9):
            got, exact = form(x), form(Fraction(x))
            try:
                float(exact)
            except OverflowError:
                assert got == math.inf
                seen.add("inf")
            else:
                assert _ulps(got, exact) <= 16
                seen.add("finite")
            x = math.nextafter(x, math.inf)
        assert seen == {"inf", "finite"}


# Float closed forms at l = 1..5 (m = 1..5 for the traces), recorded bit
# for bit, since a relative check of 1e-9 misses a change in how the terms
# are formed or summed, which moves the last bit.
LONG_S30 = {
    0.5: [
        2.7008355667675607e-08,
        2.342601339780882e-26,
        2.0318827694863084e-44,
        1.7623773703303352e-62,
        1.5286186989211518e-80,
    ],
    0.75: [
        0.015702585082407815,
        4.953698112090745e-10,
        1.5798117493826827e-17,
        5.038266582218752e-25,
        1.6067819576238225e-32,
    ],
}
LONG_AVG_S30 = {
    0.5: [
        7.294512216482495e-16,
        6.32698079386588e-34,
        5.487781057586759e-52,
        4.759891315808291e-70,
        4.128547604315388e-88,
    ],
    0.75: [
        2.6821499347309822e-05,
        8.553573720999405e-13,
        2.727868345947005e-20,
        8.699598501813618e-28,
        2.77443793081897e-35,
    ],
}
SHORT_AVG_S12 = {
    0.5: [
        29712.046663909117,
        85.96579619895526,
        3.4185490478376956,
        0.5106395306528957,
        0.11215249425914489,
    ],
    0.75: [
        3626053.67569226,
        106607.5631384925,
        5430.419559521107,
        452.10467799847703,
        62.25963406810853,
    ],
}
TRACE_S30 = {
    0.5: [
        1.0000007832429973,
        1.0000000000000007,
        1.0,
        1.0,
        1.0,
    ],
    0.75: [
        1.1660621843838175,
        1.0000268214993473,
        1.0000000047897153,
        1.0000000000008553,
        1.0000000000000002,
    ],
}
TRACE_HYPERCUBE50 = {
    0.5: [
        70064.92321624095,
        20.722728453107575,
        2.171046537842265,
        1.2152283734083131,
        1.0500148413123949,
    ],
    0.75: [
        4909093465.297739,
        932173.5545315435,
        3604.694680129954,
        117.99487939708182,
        15.475397541827302,
    ],
}
TRACE_DIHEDRAL40 = {
    0.5: [
        1.0000000000709406,
        1.0,
        1.0,
        1.0,
        1.0,
    ],
    0.75: [
        1.0007844137437425,
        1.0000000078885225,
        1.0000000000000793,
        1.0,
        1.0,
    ],
}
SHORT_TRACE_S12 = {
    0.5: [
        1659307.1011793613,
        29713.046663909117,
        1112.6488379973532,
        86.96579619895525,
        14.218220668704625,
    ],
    0.75: [
        30874160.024707202,
        3626054.67569226,
        571535.5379319787,
        106608.5631384925,
        22646.37213520705,
    ],
}


@pytest.mark.parametrize("theta", [0.5, 0.75])
def test_float_averaged_forms_keep_their_recorded_bits(theta):
    for ell, (long, avg, short) in enumerate(
        zip(LONG_S30[theta], LONG_AVG_S30[theta], SHORT_AVG_S12[theta]), start=1
    ):
        assert long_scan_chisq(symmetric(30), theta, ell) == long
        assert long_scan_avg_chisq(symmetric(30), theta, ell) == avg
        assert short_scan_chisq_symmetric(12, theta, ell, averaged=True) == short


@pytest.mark.parametrize("theta", [0.5, 0.75])
def test_float_traces_are_no_farther_from_the_exact_traces_than_recorded(theta):
    """A trace is 1 plus the power sum, so it adds the trivial block last;
    the recorded floats added it first, and at S_30, theta = 3/4, m = 1
    were 6.7e-15 off the exact trace, where 1 plus the sum is 5.7e-16 off.
    So each trace is held to its recorded distance from the exact trace,
    plus 1e-15 relative."""
    exact_theta = Fraction(theta)
    forms = [
        (functools.partial(long_scan_trace, symmetric(30)), TRACE_S30),
        (functools.partial(long_scan_trace, hypercube(50)), TRACE_HYPERCUBE50),
        (functools.partial(long_scan_trace, dihedral(40)), TRACE_DIHEDRAL40),
        (functools.partial(short_scan_trace_symmetric, 12), SHORT_TRACE_S12),
    ]
    for form, recorded in forms:
        for m, old in enumerate(recorded[theta], start=1):
            exact = form(exact_theta, m)
            error = abs(Fraction(form(theta, m)) - exact)
            assert error <= abs(Fraction(old) - exact) + exact * Fraction(1, 10**15)


def test_exact_short_scan_on_s13_equals_the_float_form():
    theta = Fraction(1, 2)
    for averaged in (False, True):
        for ell in (1, 2):
            exact = short_scan_chisq_symmetric(13, theta, ell, averaged=averaged)
            got = short_scan_chisq_symmetric(13, float(theta), ell, averaged=averaged)
            assert math.isclose(got, float(exact), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the closed-form registry


def _long_forms(family, theta, ell, averaged):
    return (long_scan_avg_chisq if averaged else long_scan_chisq)(family, theta, ell)


def _short_form(family, theta, ell, averaged):
    return short_scan_chisq_symmetric(family.n, theta, ell, averaged=averaged)


def _hypercube_random_form(family, theta, ell, averaged):
    return random_scan_chisq_hypercube(family.n, theta, ell)


def _dihedral_random_form(family, theta, ell, averaged):
    return dihedral_random_scan_chisq(family.n, theta, ell, averaged=averaged)


def _registry_cases():
    """(family, scan, averaged, theta, direct call or None where refused)."""
    both = (Fraction(1, 3), 1 / 3)
    cases = []
    for family, scan, direct in [
        (symmetric(4), "long", _long_forms),
        (symmetric(4), "short", _short_form),
        (hypercube(5), "long", _long_forms),
        (hypercube(5), "short", _long_forms),  # the long recipe on this family
        (dihedral(6), "long", _long_forms),
    ]:
        cases += [(family, scan, avg, t, direct) for avg in (False, True) for t in both]
    cases += [(hypercube(5), "random", False, t, _hypercube_random_form) for t in both]
    cases += [(dihedral(6), "random", avg, 1 / 3, _dihedral_random_form)
              for avg in (False, True)]
    # no form: symmetric random, dihedral short, exact dihedral random and
    # averaged hypercube random
    cases += [(symmetric(4), "random", avg, t, None) for avg in (False, True) for t in both]
    cases += [(dihedral(6), "short", avg, t, None) for avg in (False, True) for t in both]
    cases += [(dihedral(6), "random", avg, Fraction(1, 3), None) for avg in (False, True)]
    cases += [(hypercube(5), "random", True, t, None) for t in both]
    cases += [(symmetric(4), "diagonal", False, Fraction(1, 3), None)]  # not a scan
    return [
        pytest.param(
            *case,
            id=f"{case[0]}-{case[1]}-{'avg' if case[2] else 'id'}-"
            f"{'exact' if isinstance(case[3], Fraction) else 'float'}",
        )
        for case in cases
    ]


@pytest.mark.parametrize(("family", "scan", "averaged", "theta", "direct"), _registry_cases())
def test_closed_form_registry(family, scan, averaged, theta, direct):
    for ell in (1, 3):
        if direct is None:
            with pytest.raises(ValueError):
                spectral.closed_form(family, scan, theta, ell, averaged)
            continue
        value = spectral.closed_form(family, scan, theta, ell, averaged)
        assert type(value) is type(theta)  # a Fraction theta means exact
        assert value == direct(family, theta, ell, averaged)


@pytest.mark.parametrize(
    ("family", "scan", "averaged", "theta", "direct"),
    [case for case in _registry_cases() if case.values[4] is not None]
    # at ell < 0 a gap of 0 would be divided by, as at n = 3 and theta = 1/2
    + [pytest.param(hypercube(3), "random", False, t, _hypercube_random_form,
                    id=f"hypercube(3)-random-id-{t}") for t in (Fraction(1, 3), Fraction(1, 2))],
)
def test_every_closed_form_refuses_a_negative_pass_count(family, scan, averaged, theta, direct):
    with pytest.raises(ValueError, match="ell must be nonnegative"):
        direct(family, theta, -1, averaged)
    with pytest.raises(ValueError, match="ell must be nonnegative"):
        spectral.closed_form(family, scan, theta, -1, averaged)


# ---------------------------------------------------------------------------
# generic-degree inequalities


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_degree_bounds_hold_exhaustively(n):
    for lam in partitions(n):
        report = lemma_7_2_bounds(lam, Fraction(1, 2))
        assert report.degree_ok
        assert report.dimension_sum_ok
        assert report.content_ok


def test_dimension_sums_against_the_factorial_moment_bound():
    for n in (6, 7, 8):
        total = 0
        for j in range(1, n):
            block = sum(
                (math.factorial(n) // math.prod(hook_lengths(lam))) ** 2
                for lam in partitions(n)
                if lam[0] == n - j
            )
            assert block <= n ** (2 * j) / math.factorial(j)
            total += block
        total += 1  # the one-row partition
        assert total == math.factorial(n)


def test_degree_bound_report_requires_rational_theta():
    with pytest.raises(ValueError):
        lemma_7_2_bounds((2, 1), 0.5)


# ---------------------------------------------------------------------------
# upper bounds: frozen values, finiteness, monotonicity


def test_bound_values_frozen():
    assert bound_theorem_1_4(20, 0.5, 5) == pytest.approx(
        0.0004884004786944731, rel=1e-15
    )
    assert bound_theorem_1_4(2000, 0.5, 1) == pytest.approx(
        0.13314845306682632, rel=1e-15
    )
    assert bound_symmetric_scans(30, 0.5, "long_start") == pytest.approx(
        0.027846483035452115, rel=1e-12
    )
    assert bound_symmetric_scans(30, 0.5, "long_avg") == pytest.approx(
        8.381906684284957e-07, rel=1e-12
    )
    assert bound_symmetric_scans(70, 0.5, "long_start") == pytest.approx(
        1.4260877945204697e-07, rel=1e-12
    )
    assert bound_symmetric_scans(40, 0.5, "short_start", 10) == pytest.approx(
        4.768372718899808e-07, rel=1e-12
    )
    assert bound_symmetric_scans(40, 0.5, "short_avg", 10) == pytest.approx(
        9.536747711537455e-07, rel=1e-12
    )
    assert float(bound_dihedral_long_scan(40, Fraction(1, 2))) == pytest.approx(
        1.8189894035458565e-12, rel=1e-15
    )
    assert bound_dihedral_random_scan(10, 0.5, 50) == pytest.approx(
        22.125847235638822, rel=1e-12
    )


@pytest.mark.parametrize("theta", [1.0, Fraction(1), 1], ids=repr)
def test_dihedral_long_scan_bound_refuses_theta_one_in_every_type(theta):
    # 1.0 used to reach 2 theta^(n+1) / (1 - theta) and divide by zero
    with pytest.raises(ValueError, match="bound requires theta < 1"):
        bound_dihedral_long_scan(5, theta)


def test_dihedral_random_scan_bound_beyond_the_float_range_is_infinite():
    # theta^-n alone is 1e1000 here; the bound is true and still a float
    assert bound_dihedral_random_scan(1000, 0.1, 1) == math.inf
    assert bound_dihedral_random_scan(1000, 0.1, 10) == math.inf
    # a huge pass count brings the product back into range
    value = bound_dihedral_random_scan(1000, 0.1, 4000)
    assert 0 < value < math.inf


def test_float_long_scan_chisq_where_the_generic_degree_leaves_the_float_range():
    # at q = 10^6 the float t_lam(q) of (1^8) overflows while theta^k
    # underflows; their direct product is inf * 0 = NaN
    theta = Fraction(1, 10**6)
    for ell in (1, 2):
        exact = long_scan_chisq(symmetric(8), theta, ell)
        got = long_scan_chisq(symmetric(8), float(theta), ell)
        assert math.isclose(got, float(exact), rel_tol=1e-9)


def test_float_short_scan_chisq_where_the_generic_degree_leaves_the_float_range():
    # at q = 10^5, q^shift overflows for the longer columns of S_12
    theta = Fraction(1, 10**5)
    for ell in (1, 2, 3):
        exact = short_scan_chisq_symmetric(12, theta, ell)
        got = short_scan_chisq_symmetric(12, float(theta), ell)
        assert math.isclose(got, float(exact), rel_tol=1e-12)


def test_float_hypercube_random_scan_chisq_beyond_the_float_range():
    # theta^-j overflows, and so does the exact value
    with pytest.raises(OverflowError):
        float(random_scan_chisq_hypercube(1000, Fraction(1, 4), 40))
    assert random_scan_chisq_hypercube(1000, 0.25, 40) == math.inf
    # an overflowed product times an underflowed gap is no longer NaN
    assert not math.isnan(random_scan_chisq_hypercube(1000, 0.5, 200))


@pytest.mark.parametrize("n", [1030, 1100])
@pytest.mark.parametrize("theta", [0.5, 0.9])
def test_float_hypercube_long_forms_past_a_binomial_in_the_float_range(n, theta):
    # C(n, j) passes the float range from n = 1030 on, while each sum,
    # sum_j C(n, j) theta^(k j) = (1 + theta^k)^n, stays finite
    family = hypercube(n)
    assert math.comb(n, n // 2) > 2**1024
    for ell in (1, 2):
        want = math.expm1(n * math.log1p(theta ** (4 * ell - 1)))
        assert math.isclose(long_scan_chisq(family, theta, ell), want, rel_tol=1e-9)
        want = math.expm1(n * math.log1p(theta ** (4 * ell)))
        assert math.isclose(long_scan_avg_chisq(family, theta, ell), want, rel_tol=1e-9)
    for m in (1, 2):
        want = math.expm1(n * math.log1p(theta ** (2 * m))) + 1
        assert math.isclose(long_scan_trace(family, theta, m), want, rel_tol=1e-9)


def _hypercube_long_cases():
    """(n, theta, ell, start bits): one start per weight w of the start."""
    return [
        (n, theta, ell, (1,) * w + (0,) * (n - w))
        for n in range(1, 8)
        for theta in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(1))
        for ell in range(4)
        for w in range(n + 1)
    ]


def test_hypercube_long_forms_equal_the_block_sums():
    for n, theta, ell, bits in _hypercube_long_cases():
        family = hypercube(n)
        start = coxeter.GroupElement(family, bits)
        got = long_scan_chisq(family, theta, ell, start)
        assert type(got) is Fraction
        assert got == oracle.hypercube_long_scan_chisq(n, theta, ell, bits)
        if not any(bits):
            got = long_scan_avg_chisq(family, theta, ell)
            assert got == oracle.hypercube_long_scan_avg_chisq(n, theta, ell)
            got = long_scan_trace(family, theta, ell)
            assert got == oracle.hypercube_long_scan_trace(n, theta, ell)


def test_float_hypercube_long_forms_are_the_rounded_exact_values():
    # theta = 10^-6 and l = 1: theta^3 = 1e-18 vanishes next to 1, so the
    # products (1 + theta^k)^e would round to 1 without log1p
    tiny = [
        (n, Fraction(1, 10**6), 1, (1,) * w + (0,) * (n - w))
        for n in (1, 5)
        for w in range(n + 1)
    ]
    for n, theta, ell, bits in _hypercube_long_cases() + tiny:
        family = hypercube(n)
        start = coxeter.GroupElement(family, bits)
        forms = [
            lambda t: long_scan_chisq(family, t, ell, start),
            lambda t: long_scan_avg_chisq(family, t, ell),
            lambda t: long_scan_trace(family, t, ell),
        ]
        for form in forms:
            got = form(float(theta))
            assert type(got) is float
            assert math.isclose(got, float(form(theta)), rel_tol=1e-12)
    assert 0 < long_scan_chisq(hypercube(5), 1e-6, 1) < 1e-17


def test_float_hypercube_long_forms_past_the_float_range_are_infinite():
    # (1 + 0.9^2)^n leaves the float range from n = 1197 on, here exactly too
    family = hypercube(1200)
    with pytest.raises(OverflowError):
        float(long_scan_trace(family, Fraction(9, 10), 1))
    assert long_scan_trace(family, 0.9, 1) == math.inf
    assert long_scan_avg_chisq(family, 0.9, 0) == math.inf
    assert long_scan_chisq(family, 0.9, 0) == math.inf
    # theta^-1 alone overflows at l = 0 from a subnormal theta; it weighs
    # only the zeros of the start, so from all ones the value is finite
    assert long_scan_chisq(hypercube(3), 1e-310, 0) == math.inf
    ones = coxeter.GroupElement(hypercube(3), (1, 1, 1))
    exact = long_scan_chisq(hypercube(3), Fraction(1e-310), 0, ones)
    got = long_scan_chisq(hypercube(3), 1e-310, 0, ones)
    assert math.isclose(got, float(exact), rel_tol=1e-12)


@pytest.mark.parametrize("form", [long_scan_chisq, long_scan_avg_chisq])
def test_float_hypercube_long_forms_at_an_n_past_the_float_range(form):
    # n = 10^309 is no float, so the exponent n is multiplied in logs: past
    # the float range at one pass, and 0.0 where theta^k underflows
    family = hypercube(10**309)
    assert form(family, 0.5, 1) == math.inf
    assert form(family, 0.5, 2000) == 0.0
    # at l = 270 theta^k = 2^-1079 or 2^-1080 underflows to 0.0, but
    # n theta^k is still about 2^20 at n = 2^1100: the value is past the range
    assert form(hypercube(2**1100), 0.5, 270) == math.inf


def test_float_hypercube_long_scan_at_an_n_past_the_float_range_can_be_finite():
    # theta^3 = 1e-310 is subnormal, so n theta^3 stays small at n = 2^1024
    theta = 4.641588833612779e-104
    want = math.expm1(float(2**1024 * Fraction(theta**3)))
    assert math.isclose(long_scan_chisq(hypercube(2**1024), theta, 1), want, rel_tol=1e-9)
    # theta^1099 and theta^1100 underflow to 0.0, yet n theta^k is 2 and 1
    family = hypercube(2**1100)
    assert math.isclose(long_scan_chisq(family, 0.5, 275), math.expm1(2), rel_tol=1e-12)
    assert math.isclose(long_scan_avg_chisq(family, 0.5, 275), math.expm1(1), rel_tol=1e-12)


def test_hypercube_default_start_is_not_built():
    # the default start is the identity, of weight 0: no n-tuple of zeros
    tracemalloc.start()
    try:
        assert long_scan_chisq(hypercube(10**7), 0.5, 1) == math.inf
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_symmetric_bounds_dominate_the_closed_forms():
    # the long bounds after one pass; the short bounds at the first whole
    # pass count at or past the paper's threshold (short_start is Theorem
    # 1.4).  The leading term e^x - 1 must survive a small x: at n = 19,
    # theta = 1/10 the exact long_avg value is 3.24e-36.
    for n in [*range(3, 21), 25, 30, 35, 40]:
        family = symmetric(n)
        for theta in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert long_scan_chisq(family, theta, 1) <= bound_symmetric_scans(
                n, theta, "long_start"
            )
            assert long_scan_avg_chisq(family, theta, 1) <= bound_symmetric_scans(
                n, theta, "long_avg"
            )
            log_ratio = math.log(n) / math.log(theta)
            for c in (0.5, 1, 2):
                ell = math.ceil(n / 2 - log_ratio + c)
                assert short_scan_chisq_symmetric(n, theta, ell) <= bound_symmetric_scans(
                    n, theta, "short_start", c
                )
                ell = math.ceil(c - log_ratio)
                assert short_scan_chisq_symmetric(
                    n, theta, ell, averaged=True
                ) <= bound_symmetric_scans(n, theta, "short_avg", c)


def test_bounds_decrease_in_the_slack_constant():
    for n, theta in ((20, 0.5), (60, 0.25), (35, 0.9)):
        for f in (
            lambda c: bound_theorem_1_4(n, theta, c),
            lambda c: bound_symmetric_scans(n, theta, "short_avg", c),
            lambda c: bound_hypercube(n, theta, c, "random"),
            lambda c: bound_hypercube(n, theta, c, "systematic"),
        ):
            values = [f(c) for c in (1, 2, 4, 8, 16)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert all(math.isfinite(v) for v in values)


def test_bounds_remain_finite_far_beyond_enumeration():
    for n in (500, 2000):
        assert math.isfinite(bound_theorem_1_4(n, 0.5, 1))
        assert math.isfinite(bound_symmetric_scans(n, 0.5, "long_avg"))
        assert math.isfinite(bound_hypercube(n, 0.5, 3, "random"))


def test_single_pass_dihedral_bound_dominates_the_exact_chi_square():
    # the exact one-pass chi-square never exceeds 2 theta^{n+1} / (1 - theta)
    for n in range(3, 11):
        for theta in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            exact = long_scan_chisq(dihedral(n), theta, 1)
            assert exact <= bound_dihedral_long_scan(n, theta)


def test_bounds_reject_theta_one():
    with pytest.raises(ValueError):
        bound_theorem_1_4(10, 1.0, 2)
    with pytest.raises(ValueError):
        bound_hypercube(10, 1.0, 2, "random")
    with pytest.raises(ValueError):
        bound_symmetric_scans(10, 1.0, "short_start", 2)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        bound_theorem_1_4(10, 0.5, 0)  # needs positive slack
    with pytest.raises(ValueError):
        bound_theorem_1_4(1, 0.5, 2)  # needs n >= 2
    with pytest.raises(ValueError):
        bound_symmetric_scans(10, 0.5, "sideways")
    with pytest.raises(ValueError):
        bound_symmetric_scans(10, 0.5, "short_start")  # c required for short


def test_lead_constants_at_one_half():
    row = lead_constants(64, 0.5)
    assert row.random_scan == pytest.approx(64 * math.log(128) / 3)
    assert row.systematic_scan == pytest.approx(64 * math.log(64) / (2 * math.log(2)))


# ---------------------------------------------------------------------------
# property: the closed forms are decreasing in ell and positive


@given(
    ell=st.integers(min_value=1, max_value=6),
    theta=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)]),
)
@settings(max_examples=30, deadline=None)
def test_long_scan_chisq_decays_monotonically(ell, theta):
    family = symmetric(4)
    now = long_scan_chisq(family, theta, ell)
    nxt = long_scan_chisq(family, theta, ell + 1)
    assert 0 < nxt < now
