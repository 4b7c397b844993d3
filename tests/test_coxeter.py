"""Group-level tests: lengths against a BFS oracle, Poincare polynomials,
longest elements, cosets, and the algebraic axioms as hypothesis properties."""

import doctest
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from hecke_metro import coxeter
from hecke_metro.coxeter import (
    CapExceededError,
    GroupFamily,
    apply_generator,
    coset_probability,
    degrees,
    dihedral,
    generators,
    hypercube,
    identity,
    inverse,
    length,
    longest_element,
    min_coset_representatives,
    multiply,
    parabolic_elements,
    poincare_polynomial,
    reduced_word,
    right_apply_generator,
    symmetric,
)

SMALL_FAMILIES = [
    symmetric(2),
    symmetric(3),
    symmetric(4),
    symmetric(5),
    hypercube(1),
    hypercube(3),
    hypercube(5),
    dihedral(3),
    dihedral(4),
    dihedral(7),
    dihedral(10),
]


def bfs_lengths(family):
    """Independent word-length oracle: breadth-first search on the Cayley
    graph from the identity, one ply per generator application."""
    dist = {identity(family): 0}
    frontier = [identity(family)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in generators(family):
                v = apply_generator(i, w)
                if v not in dist:
                    dist[v] = dist[w] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def test_module_doctests():
    assert doctest.testmod(coxeter).failed == 0


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_enumeration_has_the_advertised_order(family):
    elements = coxeter.enumerate(family)
    assert len(elements) == family.order
    assert len(set(elements)) == family.order


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_lengths_match_cayley_bfs(family):
    oracle = bfs_lengths(family)
    assert len(oracle) == family.order
    for w, d in oracle.items():
        assert length(w) == d


def _pair_inversions(word):
    pairs = itertools.combinations(word, 2)
    return sum(1 for left, right in pairs if left > right)


def test_symmetric_length_is_the_pair_inversion_count():
    words = [w.payload for n in range(2, 8) for w in coxeter.enumerate(symmetric(n))]
    rng = random.Random(100)
    for _ in range(1000):
        word = list(range(1, 101))
        rng.shuffle(word)
        words.append(tuple(word))
    for word in words:
        w = coxeter.GroupElement(symmetric(len(word)), word)
        assert length(w) == _pair_inversions(word)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_longest_element_is_the_unique_maximum(family):
    w0 = longest_element(family)
    lengths = sorted(length(w) for w in coxeter.enumerate(family))
    assert length(w0) == lengths[-1]
    assert lengths[-1] > lengths[-2] or family.order == 1
    # and the maximum is the number of positive roots
    expected = {
        "symmetric": family.n * (family.n - 1) // 2,
        "hypercube": family.n,
        "dihedral": family.n,
    }[family.kind]
    assert length(w0) == expected


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_longest_element_is_an_involution_conjugating_descents(family):
    w0 = longest_element(family)
    assert multiply(w0, w0) == identity(family)
    # w0 reverses the length function: length(w0 w) = length(w0) - length(w)
    for w in coxeter.enumerate(family):
        assert length(multiply(w0, w)) == length(w0) - length(w)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_reduced_words_replay_to_the_element(family):
    for w in coxeter.enumerate(family):
        word = reduced_word(w)
        assert len(word) == length(w)
        replay = identity(family)
        for i in reversed(word):
            replay = apply_generator(i, replay)
        assert replay == w


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
@pytest.mark.parametrize("q", [Fraction(1), Fraction(2), Fraction(1, 3)])
def test_poincare_polynomial_is_the_length_generating_function(family, q):
    by_enumeration = sum((q ** length(w) for w in coxeter.enumerate(family)), Fraction(0))
    assert poincare_polynomial(family, q) == by_enumeration


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_degree_product_is_the_group_order(family):
    assert math.prod(degrees(family)) == family.order
    assert len(degrees(family)) == family.rank


def test_degrees_by_family():
    assert degrees(symmetric(5)) == (2, 3, 4, 5)
    assert degrees(hypercube(4)) == (2, 2, 2, 2)
    assert degrees(dihedral(7)) == (2, 7)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_generator_application_changes_length_by_exactly_one(family):
    for w in coxeter.enumerate(family):
        for i in generators(family):
            assert abs(length(apply_generator(i, w)) - length(w)) == 1
            assert abs(length(right_apply_generator(w, i)) - length(w)) == 1


@pytest.mark.parametrize(
    "family,J",
    [
        (symmetric(4), (1, 2)),
        (symmetric(5), (1, 2, 3)),
        (symmetric(5), (2, 4)),
        (hypercube(4), (1, 3)),
        (dihedral(6), (2,)),
    ],
    ids=lambda v: str(v),
)
def test_coset_representatives_tile_the_group(family, J):
    reps = min_coset_representatives(family, J)
    sub = parabolic_elements(family, J)
    assert len(reps) * len(sub) == family.order
    tiles = {multiply(x, u) for x in reps for u in sub}
    assert len(tiles) == family.order
    # minimal representative lengths add: length(xu) = length(x) + length(u)
    for x in reps[:6]:
        for u in sub:
            assert length(multiply(x, u)) == length(x) + length(u)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2), Fraction(1)])
def test_coset_probabilities_sum_to_one(q):
    family = symmetric(4)
    J = (1, 2)
    total = sum(
        (coset_probability(family, J, x, q) for x in min_coset_representatives(family, J)),
        Fraction(0),
    )
    assert total * poincare_polynomial(family, q) == poincare_polynomial(family, q)
    assert total == 1


def test_coset_probability_rejects_non_minimal_representatives():
    family = symmetric(4)
    w0 = longest_element(family)
    with pytest.raises(ValueError):
        coset_probability(family, (1, 2), w0, Fraction(1, 2))


def test_enumeration_cap_is_enforced_and_overridable(monkeypatch):
    monkeypatch.setenv("HECKE_METRO_CAP", "10")
    with pytest.raises(CapExceededError):
        coxeter.enumerate(symmetric(4))
    monkeypatch.setenv("HECKE_METRO_CAP", "30")
    assert len(coxeter.enumerate(symmetric(4))) == 24


def test_family_validation():
    with pytest.raises(ValueError):
        GroupFamily("symmetric", 1)
    with pytest.raises(ValueError):
        GroupFamily("dihedral", 2)
    with pytest.raises(ValueError):
        GroupFamily("icosahedral", 5)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_action_tables_follow_the_generator_actions(family):
    elements = coxeter.enumerate(family)
    tables = coxeter.action_tables(family)
    assert tables.elements == elements
    assert [tables.index[w] for w in elements] == list(range(len(elements)))
    assert list(tables.lengths) == [length(w) for w in elements]
    for i in generators(family):
        moved = [elements[k] for k in tables.perms[i - 1]]
        assert moved == [apply_generator(i, w) for w in elements]
        ups = [length(v) > length(w) for v, w in zip(moved, elements)]
        assert list(tables.ups[i - 1]) == ups


@pytest.mark.parametrize(
    "family",
    [symmetric(n) for n in range(2, 7)]
    + [hypercube(n) for n in range(1, 9)]
    + [dihedral(n) for n in range(3, 13)],
    ids=str,
)
def test_action_tables_equal_the_element_by_element_builder(family):
    """Tables read off the payloads equal, cell by cell, those built with one
    apply_generator and one length per element."""
    tables = coxeter.action_tables(family)
    assert (tables.lengths, tables.perms, tables.ups) == oracle.action_tables(family)


def test_theta_check_keeps_floats_and_makes_the_rest_exact():
    assert coxeter.check_theta(0.25) == 0.25 and isinstance(coxeter.check_theta(0.25), float)
    assert coxeter.check_theta("1/4") == Fraction(1, 4)
    assert coxeter.check_theta(1) == 1 and isinstance(coxeter.check_theta(1), Fraction)
    for bad in (0, 0.0, 1e-400, -0.5, Fraction(5, 4), 1.5, float("nan"), "0"):
        with pytest.raises(ValueError, match="theta must be in"):
            coxeter.check_theta(bad)


def test_q_check_requires_a_positive_rational():
    assert coxeter.check_q(2) == Fraction(2)
    assert coxeter.check_q("3/2") == Fraction(3, 2)
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="q must be positive"):
            coxeter.check_q(bad)


# ---------------------------------------------------------------------------
# hypothesis properties: the group axioms and the length subadditivity


def elements_of(family):
    pool = coxeter.enumerate(family)
    return st.sampled_from(pool)


@given(data=st.data())
@settings(max_examples=60)
def test_multiplication_is_associative(data):
    family = data.draw(st.sampled_from([symmetric(4), hypercube(3), dihedral(5)]))
    a = data.draw(elements_of(family))
    b = data.draw(elements_of(family))
    c = data.draw(elements_of(family))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(data=st.data())
@settings(max_examples=60)
def test_inverse_and_length_symmetry(data):
    family = data.draw(st.sampled_from([symmetric(4), hypercube(4), dihedral(6)]))
    w = data.draw(elements_of(family))
    assert multiply(w, inverse(w)) == identity(family)
    assert multiply(inverse(w), w) == identity(family)
    assert length(inverse(w)) == length(w)


@given(data=st.data())
@settings(max_examples=60)
def test_length_is_subadditive_with_matching_parity(data):
    family = data.draw(st.sampled_from([symmetric(4), hypercube(3), dihedral(7)]))
    a = data.draw(elements_of(family))
    b = data.draw(elements_of(family))
    lab = length(multiply(a, b))
    assert lab <= length(a) + length(b)
    assert (lab - length(a) - length(b)) % 2 == 0
