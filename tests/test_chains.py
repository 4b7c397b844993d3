"""Kernel-level tests: transition entries, stationarity, reversibility,
the algebra correspondence, scan recipes, and the distance inequalities."""

import doctest
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from hecke_metro import chains, coxeter, hecke
from hecke_metro.chains import (
    Distribution,
    check_reversible,
    check_stationary,
    chi_square,
    evolve_scan,
    long_recipe,
    point_mass,
    power_sums,
    power_sums_with_crosses,
    scan_kernel,
    short_recipe,
    stationary,
    tv_distance,
)
from hecke_metro.coxeter import dihedral, hypercube, symmetric

THETAS = [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)]
FAMILIES = [symmetric(3), symmetric(4), hypercube(3), dihedral(5), dihedral(6)]


def test_module_doctests():
    failed, attempted = doctest.testmod(chains)
    assert attempted > 0
    assert failed == 0


def test_stationary_values_for_s3_at_one_half():
    pi = stationary(symmetric(3), Fraction(1, 2))
    probs = {w: p for w, p in zip(coxeter.enumerate(symmetric(3)), pi.probs)}
    assert probs[coxeter.identity(symmetric(3))] == Fraction(1, 21)
    assert probs[coxeter.longest_element(symmetric(3))] == Fraction(8, 21)
    assert sum(pi.probs) == 1


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("theta", THETAS)
def test_generator_kernel_entries(family, theta):
    elements, index = oracle.positions(family)
    for i in coxeter.generators(family):
        K = scan_kernel(family, theta, (i,))
        M = K.matrix
        for x, w in zip(range(len(elements)), elements):
            v = coxeter.apply_generator(i, w)
            y = index[v]
            if coxeter.length(v) > coxeter.length(w):
                assert M[x][y] == 1  # proposed move up is always accepted
                assert M[x][x] == 0
            else:
                assert M[x][y] == theta  # move down accepted with probability theta
                assert M[x][x] == 1 - theta
            assert sum(M[x], Fraction(0)) == 1
        # the rows read off the tables are the nonzero entries of the same rows
        rows = chains.generator_rows(family, theta, i)
        assert rows == [{y: v for y, v in enumerate(row) if v} for row in K.num]


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_generator_kernels_match_the_algebra(family):
    q = Fraction(2)
    for i in coxeter.generators(family):
        K = scan_kernel(family, Fraction(1, 2), (i,))
        block = oracle.left_mult_matrix(hecke.tilde_word(family, q, (i,)))
        assert (K.matrix == block).all()


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("theta", THETAS)
def test_stationarity_and_reversibility(family, theta):
    pi = stationary(family, theta)
    kernels = [scan_kernel(family, theta, (i,)) for i in coxeter.generators(family)]
    kernels += [scan_kernel(family, theta, r(family)) for r in (short_recipe, long_recipe)]
    kernels += [scan_kernel(family, theta, "random")]
    for K in kernels:
        assert oracle.evolve(K, pi, 1).probs == pi.probs
    # single-generator and random-scan kernels are reversible; scans need not be
    for K in kernels[: family.rank] + [kernels[-1]]:
        assert check_reversible(K, pi)


def test_reversibility_negative_control():
    family = symmetric(3)
    theta = Fraction(1, 2)
    pi = stationary(family, theta)
    broken = _perturbed(scan_kernel(family, theta, (1,)))
    assert not check_reversible(broken, pi)
    sparse = [{y: v for y, v in enumerate(row) if v} for row in broken.num]
    assert not check_reversible(chains.Kernel(family, theta, sparse, broken.den), pi)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_scan_kernels_compose_the_recipe_left_to_right(family):
    # applying K_{i_1} then K_{i_2} is the matrix product K_{i_1} K_{i_2}
    theta = Fraction(1, 3)
    i, j = 1, family.rank
    K = scan_kernel(family, theta, (i, j))
    Ki, Kj = scan_kernel(family, theta, (i,)), scan_kernel(family, theta, (j,))
    product = np.array(Ki.matrix, dtype=object) @ np.array(Kj.matrix, dtype=object)
    assert (K.matrix == product).all()


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("theta", THETAS)
def test_long_scan_is_the_squared_longest_element(family, theta):
    q = 1 / theta
    w0 = coxeter.longest_element(family)
    tw0 = hecke.tilde_word(family, q, coxeter.reduced_word(w0))
    block = oracle.left_mult_matrix(hecke.product(tw0, tw0))
    assert (scan_kernel(family, theta, long_recipe(family)).matrix == block).all()
    # the recipe reversed is two reduced words of w0 back to back
    recipe = long_recipe(family)
    assert len(recipe) == 2 * coxeter.length(w0)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_short_scan_is_u_times_star_u(family):
    theta = Fraction(1, 2)
    q = 1 / theta
    u = hecke.tilde_word(family, q, tuple(range(1, family.rank + 1)))
    block = oracle.left_mult_matrix(hecke.product(u, oracle.star(u)))
    assert (scan_kernel(family, theta, short_recipe(family)).matrix == block).all()
    assert short_recipe(family) == tuple(range(1, family.rank + 1)) + tuple(
        range(family.rank, 0, -1)
    )


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_long_scan_commutes_with_every_generator_kernel(family):
    K = scan_kernel(family, Fraction(1, 2), long_recipe(family))
    for i in coxeter.generators(family):
        assert oracle.commutes_with_metropolis(K, i)


def test_short_scan_need_not_commute():
    # the short scan is self-adjoint but not central; S_3 already shows it
    K = scan_kernel(symmetric(3), Fraction(1, 2), short_recipe(symmetric(3)))
    assert not all(oracle.commutes_with_metropolis(K, i) for i in (1, 2))


def test_random_scan_is_the_uniform_generator_mixture():
    family = symmetric(4)
    theta = Fraction(1, 3)
    mix = sum(
        np.array(scan_kernel(family, theta, (i,)).matrix, dtype=object)
        for i in coxeter.generators(family)
    ) / Fraction(family.rank)
    assert (scan_kernel(family, theta, "random").matrix == mix).all()


def test_evolution_from_a_point_mass_reads_off_kernel_rows():
    family = dihedral(4)
    theta = Fraction(1, 2)
    K = scan_kernel(family, theta, short_recipe(family))
    x = coxeter.longest_element(family)
    dist = oracle.evolve(K, point_mass(family, x), 1)
    assert dist.probs == K.matrix[oracle.positions(family)[1][x]]


EVOLVE_FAMILIES = (
    [symmetric(n) for n in range(2, 6)]
    + [hypercube(n) for n in range(1, 7)]
    + [dihedral(n) for n in range(3, 9)]
)


@pytest.mark.parametrize("family", EVOLVE_FAMILIES, ids=str)
@pytest.mark.parametrize("scan", ["long", "short", "random"])
def test_matrix_free_evolution_equals_dense_evolution(family, scan):
    """evolve_scan against the dense oracle evolve(scan kernel), by ==."""
    scan = {"long": long_recipe(family), "short": short_recipe(family)}.get(scan, scan)
    for theta in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)):
        K = scan_kernel(family, theta, scan)
        starts = (
            point_mass(family, coxeter.identity(family)),
            point_mass(family, coxeter.longest_element(family)),
            stationary(family, theta),
        )
        for start in starts:
            dense = start
            for ell in range(4):
                fast = evolve_scan(family, theta, scan, start, ell)
                assert fast.probs == dense.probs, (theta, ell)
                dense = oracle.evolve(K, dense, 1)


def _perturbed(K):
    """K with the largest entry of the identity row (for K_i, the move out of
    the identity) swapped onto the diagonal."""
    row = list(K.num[0])
    moved = row.index(max(row))
    row[0], row[moved] = row[moved], row[0]
    return chains.Kernel(K.family, K.theta, [row] + K.num[1:], K.den)


@pytest.mark.parametrize("family", EVOLVE_FAMILIES, ids=str)
@pytest.mark.parametrize("scan", ["long", "short", "random"])
def test_integer_reductions_equal_the_fraction_oracle(family, scan):
    """Each reduction on integer numerators against its Fraction loop, by ==."""
    scan = {"long": long_recipe(family), "short": short_recipe(family)}.get(scan, scan)
    for theta in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)):
        pi = stationary(family, theta)
        uniform = Distribution.of(family, [Fraction(1, family.order)] * family.order)
        # positive and, unless theta = 1, not the stationary law
        mixed = Distribution.of(family, [(p + u) / 2 for p, u in zip(pi.probs, uniform.probs)])
        for ell in range(4):
            starts = (
                point_mass(family, coxeter.identity(family)),
                point_mass(family, coxeter.longest_element(family)),
                mixed,
            )
            for start in starts:
                p = evolve_scan(family, theta, scan, start, ell)
                for ref in (pi, mixed):
                    assert chi_square(p, ref) == oracle.chi_square(p, ref)
                    assert tv_distance(p, ref) == oracle.tv_distance(p, ref)


@pytest.mark.parametrize("family", EVOLVE_FAMILIES, ids=str)
@pytest.mark.parametrize("scan", ["long", "short", "random"])
def test_power_sums_equal_the_fraction_oracle(family, scan):
    """power_sums against the dense traces and averaged chi-squares of K^m
    rebuilt from scratch, by ==, for m = 1..5."""
    scan = {"long": long_recipe(family), "short": short_recipe(family)}.get(scan, scan)
    for theta in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)):
        sums = power_sums(family, theta, scan, 5)
        assert len(sums) == 5
        for m, (trace, averaged) in enumerate(sums, start=1):
            assert trace == oracle.trace_of_power(family, theta, scan, m), (theta, m)
            assert averaged == oracle.average_start_chi_square(family, theta, scan, m), (
                theta,
                m,
            )


@pytest.mark.parametrize("family", [symmetric(4), hypercube(3), dihedral(7)], ids=str)
@pytest.mark.parametrize("scan", ["short", "random"])
def test_power_sums_do_not_depend_on_the_block_height(family, scan, monkeypatch):
    """The streamed oracle, one row a block, three rows a block (the last one
    ragged) and one block of all rows, gives the sums that power_sums derives
    row by row."""
    scan = short_recipe(family) if scan == "short" else scan
    theta = Fraction(2, 3)
    sums = power_sums_with_crosses(family, theta, scan, 3)
    for cells in (1, 3 * family.order, 2**30):
        monkeypatch.setattr(oracle, "STREAM_BLOCK_CELLS", cells)
        assert oracle.streamed_power_sums(family, theta, scan, 3) == sums


def _scans(family):
    return [long_recipe(family), short_recipe(family), "random"]


def _assert_python_ints(rows):
    assert all(type(v) is int for row in rows for v in row)


def _assert_equal_to_the_dense_oracle(family, theta, scan, passes):
    sums = power_sums_with_crosses(family, theta, scan, passes)
    assert sums == oracle.dense_power_sums(family, theta, scan, passes)
    assert power_sums(family, theta, scan, passes) == [entry[:2] for entry in sums]
    for start in (point_mass(family, coxeter.identity(family)), stationary(family, theta)):
        fast = evolve_scan(family, theta, scan, start, passes)
        _assert_python_ints([fast.num])
        assert fast.probs == list(oracle.dense_evolve(family, theta, scan, start, passes))


# Denominators past 2^63 - 1: each row is a list of Python ints, which grow
# as they need, so these equal the oracle with no change of representation.


@pytest.mark.parametrize("family", [symmetric(3), hypercube(3), dihedral(4)], ids=str)
def test_a_denominator_past_int64_widens_before_the_first_letter(family):
    for theta in (Fraction(1, 2**63), Fraction(1, 3**70)):
        for scan in _scans(family):
            _assert_equal_to_the_dense_oracle(family, theta, scan, 3)


def test_the_block_widens_in_the_middle_of_a_pass():
    # six letters a pass at theta = 1/2: the row sum passes 2^63 at the third
    # letter of pass 11
    family = hypercube(3)
    _assert_equal_to_the_dense_oracle(family, Fraction(1, 2), long_recipe(family), 11)


@pytest.mark.parametrize("family", [symmetric(3), hypercube(3), dihedral(5)], ids=str)
def test_theta_one_stays_on_machine_integers(family):
    for scan in _scans(family):
        _assert_equal_to_the_dense_oracle(family, Fraction(1), scan, 4)


def test_random_scan_and_a_stationary_start_with_a_large_denominator():
    # pi of hypercube(3) at theta = 1/2^20 has a denominator near 2^60, and
    # the first random pass (factor 3 * 2^20) takes it past 2^63
    family, theta = hypercube(3), Fraction(1, 2**20)
    pi = stationary(family, theta)
    assert 2**59 < pi.den < 2**63 < pi.den * 3 * 2**20
    _assert_equal_to_the_dense_oracle(family, theta, "random", 3)
    # at theta = 1/4 a pass multiplies the row sum by b * rank = 12, past
    # 2^63 at pass 18
    _assert_equal_to_the_dense_oracle(family, Fraction(1, 4), "random", 18)


@pytest.mark.parametrize("theta", [Fraction(1), Fraction(1, 2), Fraction(1, 2**70)], ids=str)
def test_kernels_and_distributions_leave_chains_as_python_ints(theta):
    family = symmetric(3)
    start = point_mass(family, coxeter.identity(family))
    _assert_python_ints(scan_kernel(family, theta, (1, 2)).num)
    _assert_python_ints(scan_kernel(family, theta, "random").num)
    _assert_python_ints([evolve_scan(family, theta, long_recipe(family), start, 2).num])
    _assert_python_ints([evolve_scan(family, theta, "random", stationary(family, theta), 2).num])
    _assert_python_ints([row.values() for row in chains.generator_rows(family, theta, 1)])


CROSS_FAMILIES = [symmetric(3), symmetric(4), hypercube(3), dihedral(4), dihedral(5), dihedral(6)]


@pytest.mark.parametrize("family", CROSS_FAMILIES, ids=str)
@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2, 3)], ids=str)
def test_cross_sums_of_a_reversible_scan_are_odd_traces(family, theta):
    """<K^(m-1), K^m>_pi == tr(K^(2m-1)) and <K^m, K^m>_pi == tr(K^(2m)) for
    the long, short and random scans, which are pi-reversible."""
    for scan in _scans(family):
        sums = power_sums_with_crosses(family, theta, scan, 5)
        traces = [trace for trace, _, _ in sums]
        for m, (_, averaged, cross) in enumerate(sums[:3], start=1):
            assert cross == traces[2 * m - 2]
            if m <= 2:
                assert averaged + 1 == traces[2 * m - 1]


def test_cross_sums_of_a_non_reversible_recipe_are_not_traces():
    family, theta, scan = symmetric(3), Fraction(1, 2), (1, 2)
    sums = power_sums_with_crosses(family, theta, scan, 3)
    assert sums == oracle.dense_power_sums(family, theta, scan, 3)
    assert sums[1][2] != sums[2][0]  # <K, K^2>_pi != tr(K^3)


# ---------------------------------------------------------------------------
# power sums from the identity row: row x of K^m is row(x s_i) times T~_i

GRID_THETAS = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1, 2**63),
    Fraction(1, 3**70),
    Fraction(10**30 + 1, 10**30 + 7),
]
ROW_FAMILIES = (
    [symmetric(n) for n in range(2, 6)]
    + [hypercube(n) for n in range(1, 6)]
    + [dihedral(n) for n in range(3, 13)]
)
# the dense Fraction oracle takes |W|^2 Fraction products a letter: on S_5
# that is 1-4 s for each theta and scan of the grid, so S_5, hypercube(5)
# and dihedral(9..12) meet it through the streamed oracle, itself checked
# against it
DENSE_ROW_FAMILIES = (
    [symmetric(n) for n in range(2, 5)]
    + [hypercube(n) for n in range(1, 5)]
    + [dihedral(n) for n in range(3, 9)]
)


def _grid_scans(family):
    """The long, short and random scans, and the ascending sweep (1, ..., rank),
    which is not pi-reversible once the rank is 2 or more."""
    return _scans(family) + [tuple(coxeter.generators(family))]


@pytest.mark.parametrize("family", [symmetric(6), hypercube(5), dihedral(7)], ids=str)
def test_descent_tree_builds_no_element(family, monkeypatch):
    """The tree comes from the left tables alone, read off payloads: no group
    element is built."""
    fresh = chains._descent_tree.__wrapped__  # past the caches
    monkeypatch.setattr(coxeter, "action_tables", coxeter.action_tables.__wrapped__)
    built = []
    monkeypatch.setattr(
        coxeter.GroupElement, "__post_init__", lambda self: built.append(self.payload)
    )
    tree = fresh(family)
    assert sorted(tree.order) == list(range(family.order))
    assert built == []
    # negative control: the spy sees the elements enumerate builds
    coxeter.enumerate(family)
    assert len(built) == family.order


@pytest.mark.parametrize("family", DENSE_ROW_FAMILIES, ids=str)
def test_power_sums_from_the_identity_row_equal_the_dense_oracle(family):
    for theta in GRID_THETAS:
        for scan in _grid_scans(family):
            sums = power_sums_with_crosses(family, theta, scan, 2)
            assert sums == oracle.dense_power_sums(family, theta, scan, 2), (theta, scan)
            assert power_sums(family, theta, scan, 2) == [entry[:2] for entry in sums]


@pytest.mark.parametrize("family", ROW_FAMILIES, ids=str)
def test_power_sums_from_the_identity_row_equal_the_streamed_rows(family):
    for theta in GRID_THETAS:
        for scan in _grid_scans(family):
            sums = power_sums_with_crosses(family, theta, scan, 3)
            assert sums == oracle.streamed_power_sums(family, theta, scan, 3), (theta, scan)
            assert power_sums(family, theta, scan, 3) == [entry[:2] for entry in sums]


@pytest.mark.parametrize("family", [symmetric(6), hypercube(8), dihedral(60)], ids=str)
def test_power_sums_equal_the_streamed_rows_on_large_groups(family):
    theta = Fraction(3, 4)
    for scan in _scans(family):
        sums = power_sums_with_crosses(family, theta, scan, 2)
        assert sums == oracle.streamed_power_sums(family, theta, scan, 2), scan


@given(
    family=st.sampled_from([symmetric(3), symmetric(4), hypercube(3), dihedral(5)]),
    theta=st.sampled_from(GRID_THETAS[:5]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_power_sums_of_random_recipes_equal_the_dense_oracle(family, theta, data):
    gens = st.integers(min_value=1, max_value=family.rank)
    recipe = tuple(data.draw(st.lists(gens, min_size=1, max_size=6)))
    passes = data.draw(st.integers(min_value=1, max_value=3))
    sums = power_sums_with_crosses(family, theta, recipe, passes)
    assert sums == oracle.dense_power_sums(family, theta, recipe, passes)
    assert power_sums(family, theta, recipe, passes) == [entry[:2] for entry in sums]


def test_a_row_widens_in_the_middle_of_the_walk():
    # hypercube(3) long at theta = 1/2: six letters a pass, so the identity
    # row of K^10 is over 2^60 and its rows of length 3 over 2^63
    family, theta = hypercube(3), Fraction(1, 2)
    scan = long_recipe(family)
    dense = oracle.dense_power_sums(family, theta, scan, 10)
    assert power_sums(family, theta, scan, 10) == [entry[:2] for entry in dense]
    assert power_sums_with_crosses(family, theta, scan, 10) == dense


def test_power_sums_need_a_pass():
    for passes in (0, -1):
        for sums in (power_sums, power_sums_with_crosses):
            with pytest.raises(ValueError):
                sums(symmetric(3), Fraction(1, 2), long_recipe(symmetric(3)), passes)


@pytest.mark.parametrize(
    "family",
    [symmetric(n) for n in range(2, 7)]
    + [hypercube(n) for n in range(1, 9)]
    + [dihedral(n) for n in range(3, 13)],
    ids=str,
)
def test_right_action_columns_and_length_levels(family):
    """The descent tree's left tables, relabelled from positions to
    enumeration indices, equal those of w -> s_i w built element by element;
    each child c is s_i times its parent, for s_i the first left descent of
    c, and one longer; the walk yields every element once, and its rows are
    those of the kernel with rows and columns relabelled by inverses, each
    over den * b^length."""
    lengths, perms, ups = oracle.action_tables(family)
    tree = chains._descent_tree(family)
    order = tree.order
    assert sorted(order) == list(range(family.order))
    assert tree.lengths == [lengths[x] for x in order] == sorted(lengths)
    for (left, up), perm, want in zip(tree.left, perms, ups):
        assert [order[t] for t in left] == [perm[x] for x in order]
        assert up == [want[x] for x in order]
    edges = 0
    for p, children in enumerate(tree.children):
        for i, c in children:
            assert perms[i][order[c]] == order[p]
            assert tree.lengths[c] == tree.lengths[p] + 1
            assert [u[order[c]] for u in ups[: i + 1]] == [True] * i + [False]
            edges += 1
    assert edges == family.order - 1
    # row x of the walk from the identity row of the reversed recipe's kernel
    # is row x^-1 of the kernel, columns relabelled the same way; the short
    # recipe is its own reversal, the ascending sweep is not
    theta = Fraction(2, 3)
    elements, index = oracle.positions(family)
    inverse = [index[oracle.inverse(w)] for w in elements]
    for recipe in (short_recipe(family), tuple(coxeter.generators(family))):
        K = scan_kernel(family, theta, recipe)
        start = scan_kernel(family, theta, recipe[::-1]).num[order[0]]
        walked = list(
            chains._walk(tree, theta.numerator, theta.denominator, [start[x] for x in order])
        )
        assert sorted(p for p, _ in walked) == list(range(family.order))
        for p, row in walked:
            lift = theta.denominator ** tree.lengths[p]
            assert row == [K.num[inverse[order[p]]][inverse[x]] * lift for x in order]


def test_power_sums_hold_only_the_walks_path():
    # the rows on the walk's path take about 0.1 MiB here; holding two whole
    # length levels of each of two powers at once took 1.8 MiB
    family, theta = hypercube(8), Fraction(1, 4)
    scan = long_recipe(family)
    expected = power_sums(family, theta, scan, 2)  # the tables are cached outside the trace
    tracemalloc.start()
    try:
        assert power_sums(family, theta, scan, 2) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak


@pytest.mark.parametrize("family", EVOLVE_FAMILIES, ids=str)
def test_integer_balance_checks_equal_the_fraction_oracle(family):
    """check_reversible and check_stationary against their Fraction loops, by ==,
    for any pi and for perturbed kernels too."""
    for theta in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)):
        pi = stationary(family, theta)
        longest = point_mass(family, coxeter.longest_element(family))
        # never stationary: half its mass sits on the longest element
        mixed = Distribution.of(family, [(p + w) / 2 for p, w in zip(pi.probs, longest.probs)])
        first, last = (scan_kernel(family, theta, (i,)) for i in (1, family.rank))
        mixture = scan_kernel(family, theta, "random")
        kernels = [first, last, scan_kernel(family, theta, long_recipe(family)), mixture]
        kernels += [_perturbed(first), _perturbed(mixture)]
        for K in kernels:
            for ref in (pi, mixed):
                assert check_reversible(K, ref) == oracle.check_reversible(K, ref)
                assert check_stationary(K, ref) == oracle.check_stationary(K, ref)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(9, 10)])
@pytest.mark.parametrize("ell", [1, 2])
def test_averaged_chi_square_equals_regular_trace_minus_one(family, theta, ell):
    for scan in (long_recipe(family), short_recipe(family)):
        sums = power_sums(family, theta, scan, 2 * ell)
        assert sums[ell - 1][1] == sums[2 * ell - 1][0] - 1


def test_tv_is_monotone_along_the_long_scan():
    family = symmetric(4)
    theta = Fraction(1, 2)
    K = scan_kernel(family, theta, long_recipe(family))
    pi = stationary(family, theta)
    dist = point_mass(family, coxeter.identity(family))
    last = tv_distance(dist, pi)
    for _ in range(4):
        dist = oracle.evolve(K, dist, 1)
        now = tv_distance(dist, pi)
        assert now <= last
        last = now


def test_theta_one_degenerates_to_deterministic_flips():
    family = hypercube(2)
    K = scan_kernel(family, Fraction(1), (1,))
    M = np.array(K.matrix, dtype=object)
    assert all(sorted(row) == [0, 0, 0, 1] for row in M.tolist())
    assert (M @ M == np.identity(4, dtype=object)).all()


def test_parameter_validation():
    with pytest.raises(ValueError):
        scan_kernel(symmetric(3), Fraction(2), (1,))
    with pytest.raises(ValueError):
        scan_kernel(symmetric(3), Fraction(0), (1,))
    with pytest.raises(ValueError):
        scan_kernel(symmetric(3), Fraction(1, 2), (5,))
    with pytest.raises(ValueError):
        scan_kernel(symmetric(3), Fraction(1, 2), (1, 9))
    for i in (0, 3):
        with pytest.raises(ValueError):
            chains.generator_rows(symmetric(3), Fraction(1, 2), i)
    for passes in (0, -1):
        with pytest.raises(ValueError):
            power_sums(symmetric(3), Fraction(1, 2), (1,), passes)
    with pytest.raises(ValueError):
        power_sums(symmetric(3), Fraction(1, 2), (1, 9), 1)
    start = point_mass(symmetric(3), coxeter.identity(symmetric(3)))
    with pytest.raises(ValueError):
        evolve_scan(symmetric(3), Fraction(1, 2), (1, 9), start, 1)
    with pytest.raises(ValueError):
        evolve_scan(symmetric(3), Fraction(1, 2), "sideways", start, 1)
    with pytest.raises(ValueError):
        evolve_scan(symmetric(3), Fraction(1, 2), (1, 2), start, -1)
    with pytest.raises(ValueError):
        evolve_scan(symmetric(4), Fraction(1, 2), (1, 2), start, 1)
    with pytest.raises(ValueError):
        Distribution.of(symmetric(3), [Fraction(1)] * 6)
    with pytest.raises(ValueError):
        Distribution(symmetric(3), [1, 1, 1, 1, 1, 0], 6)
    with pytest.raises(ValueError):
        Distribution(symmetric(3), [2, -1, 0, 0, 0, 0], 1)
    with pytest.raises(ValueError):  # one numerator per element
        Distribution(symmetric(3), [1, 1, 1, 1, 1, 1] * 2, 12)
    # numerators and denominator need not be in lowest terms
    pi = stationary(symmetric(3), Fraction(1, 2))
    p = Distribution.of(symmetric(3), [Fraction(k, 12) for k in (4, 0, 2, 0, 1, 5)])
    scaled = Distribution(symmetric(3), [v * 7 for v in p.num], p.den * 7)
    scaled_pi = Distribution(symmetric(3), [v * 5 for v in pi.num], pi.den * 5)
    for ref in (pi, scaled_pi):
        assert chi_square(scaled, ref) == chi_square(p, pi)
        assert tv_distance(scaled, ref) == tv_distance(p, pi)
    with pytest.raises(ValueError):
        tv_distance(
            stationary(symmetric(3), Fraction(1, 2)),
            stationary(symmetric(4), Fraction(1, 2)),
        )


# ---------------------------------------------------------------------------
# hypothesis: the chi-square dominates 4 tv^2 for arbitrary distributions


@st.composite
def rational_distribution(draw, size):
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=20), min_size=size, max_size=size
        ).filter(lambda ws: sum(ws) > 0)
    )
    total = sum(weights)
    return np.array([Fraction(w, total) for w in weights], dtype=object)


@given(data=st.data())
@settings(max_examples=80)
def test_four_tv_squared_is_at_most_chi_square(data):
    family = symmetric(3)
    pi = stationary(family, data.draw(st.sampled_from(THETAS)))
    p = Distribution.of(family, data.draw(rational_distribution(family.order)))
    tv = tv_distance(p, pi)
    assert 4 * tv**2 <= chi_square(p, pi)
