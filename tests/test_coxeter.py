"""Group-level tests: lengths against a BFS oracle, Poincare polynomials,
longest elements, action tables, and the algebraic axioms as hypothesis
properties."""

import doctest
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from hecke_metro import coxeter
from hecke_metro.coxeter import (
    CapExceededError,
    CapSettingError,
    GroupElement,
    GroupFamily,
    apply_generator,
    degrees,
    dihedral,
    generators,
    hypercube,
    identity,
    length,
    longest_element,
    multiply,
    poincare_polynomial,
    reduced_word,
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
    failed, attempted = doctest.testmod(coxeter)
    assert attempted > 0
    assert failed == 0


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
            assert abs(length(oracle.right_apply_generator(w, i)) - length(w)) == 1


@pytest.mark.parametrize("family", [symmetric(3), hypercube(3), dihedral(5)], ids=str)
def test_generator_index_out_of_range_is_refused(family):
    """Every family checks i, so no index past the generators moves w."""
    for i in (0, family.rank + 1):
        with pytest.raises(ValueError, match=f"generator index {i} out of range"):
            apply_generator(i, identity(family))


@pytest.mark.parametrize("raw", ["abc", "1e6", "-5", "", "2.5"])
def test_enumeration_cap_refuses_what_is_not_a_nonnegative_integer(monkeypatch, raw):
    monkeypatch.setenv("HECKE_METRO_CAP", raw)
    message = f"HECKE_METRO_CAP must be a nonnegative integer, got {raw!r}"
    with pytest.raises(CapSettingError, match=f"^{re.escape(message)}$"):
        coxeter.enumeration_cap()
    with pytest.raises(CapSettingError):
        coxeter.check_order(symmetric(3))


@pytest.mark.parametrize("raw, cap", [("0", 0), ("7", 7), (" 12 ", 12), ("50_000", 50000)])
def test_enumeration_cap_reads_a_nonnegative_integer(monkeypatch, raw, cap):
    monkeypatch.setenv("HECKE_METRO_CAP", raw)
    assert coxeter.enumeration_cap() == cap


def test_enumeration_cap_is_enforced_and_overridable(monkeypatch):
    monkeypatch.setenv("HECKE_METRO_CAP", "10")
    with pytest.raises(CapExceededError):
        coxeter.enumerate(symmetric(4))
    monkeypatch.setenv("HECKE_METRO_CAP", "30")
    assert len(coxeter.enumerate(symmetric(4))) == 24


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 6, 23, 24, 120, 7, 8, 40])
def test_check_order_refuses_exactly_the_orders_past_the_cap(monkeypatch, cap):
    monkeypatch.setenv("HECKE_METRO_CAP", str(cap))
    families = (
        [symmetric(n) for n in range(2, 7)]
        + [hypercube(n) for n in range(1, 7)]
        + [dihedral(n) for n in range(3, 22)]
    )
    for family in families:
        if family.order > cap:
            with pytest.raises(CapExceededError, match=rf"^\|{re.escape(str(family))}\| >?= "):
                coxeter.check_order(family)
        else:
            assert coxeter.check_order(family) == family.order


@pytest.mark.parametrize(
    "family, message",
    [
        (symmetric(10**6), "|symmetric(1000000)| >= 9! = 362880 exceeds the enumeration cap 50000"),
        (hypercube(10**9), "|hypercube(1000000000)| >= 2^16 = 65536 exceeds the enumeration cap 50000"),
        (symmetric(9), "|symmetric(9)| = 9! = 362880 exceeds the enumeration cap 50000"),
        (dihedral(25001), "|dihedral(25001)| = 2*25001 = 50002 exceeds the enumeration cap 50000"),
    ],
    ids=str,
)
def test_check_order_stops_at_the_first_product_past_the_cap(monkeypatch, family, message):
    def no_order(family):
        raise AssertionError("|W| formed")

    monkeypatch.delenv("HECKE_METRO_CAP", raising=False)
    monkeypatch.setattr(GroupFamily, "order", property(no_order))
    for gate in (coxeter.check_order, coxeter.enumerate):
        with pytest.raises(CapExceededError) as refused:
            gate(family)
        assert str(refused.value).startswith(message)


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
    assert list(tables.lengths) == [length(w) for w in elements]
    for i in generators(family):
        moved = [elements[k] for k in tables.perms[i - 1]]
        assert moved == [apply_generator(i, w) for w in elements]
        ups = [length(v) > length(w) for v, w in zip(moved, elements)]
        assert list(tables.ups[i - 1]) == ups


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_index_is_the_position_in_the_enumeration(family):
    elements = coxeter.enumerate(family)
    assert [coxeter.index(w) for w in elements] == list(range(len(elements)))


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=str)
def test_action_tables_build_no_element(family, monkeypatch):
    built, new = [], GroupElement.__new__

    def spy(cls, family, payload):
        built.append(payload)
        return new(cls, family, payload)

    monkeypatch.setattr(GroupElement, "__new__", spy)
    tables = coxeter.action_tables.__wrapped__(family)  # past the cache
    assert len(tables.lengths) == family.order
    assert built == []
    # negative control: the spy sees the elements enumerate builds
    coxeter.enumerate(family)
    assert len(built) == family.order


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
    assert multiply(w, oracle.inverse(w)) == identity(family)
    assert multiply(oracle.inverse(w), w) == identity(family)
    assert length(oracle.inverse(w)) == length(w)


@given(data=st.data())
@settings(max_examples=60)
def test_length_is_subadditive_with_matching_parity(data):
    family = data.draw(st.sampled_from([symmetric(4), hypercube(3), dihedral(7)]))
    a = data.draw(elements_of(family))
    b = data.draw(elements_of(family))
    lab = length(multiply(a, b))
    assert lab <= length(a) + length(b)
    assert (lab - length(a) - length(b)) % 2 == 0


# ---------------------------------------------------------------------------
# the records: validation, immutability, equality and repr


@pytest.mark.parametrize(
    "kind, n, message",
    [
        ("cyclic", 3, "unknown family kind 'cyclic'"),
        ("symmetric", 1, "symmetric family needs n >= 2, got 1"),
        ("hypercube", 0, "hypercube family needs n >= 1, got 0"),
        ("dihedral", 2, "dihedral family needs n >= 3, got 2"),
    ],
)
def test_group_family_refuses_a_bad_kind_or_n(kind, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GroupFamily(kind, n)


@pytest.mark.parametrize(
    "family, payload, message",
    [
        (symmetric(3), (1, 1, 3), "not a permutation of 1..3: (1, 1, 3)"),
        (symmetric(3), (1, 2), "not a permutation of 1..3: (1, 2)"),
        (hypercube(3), (0, 2, 1), "not a length-3 bit vector: (0, 2, 1)"),
        (hypercube(3), (0, 1), "not a length-3 bit vector: (0, 1)"),
        (dihedral(5), (5, 0), "not a valid rotation/flag pair mod 5: (5, 0)"),
        (dihedral(5), (1, 2), "not a valid rotation/flag pair mod 5: (1, 2)"),
        (dihedral(5), (0, 0, 0), "not a valid rotation/flag pair mod 5: (0, 0, 0)"),
    ],
)
def test_group_element_refuses_a_bad_payload(family, payload, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GroupElement(family, payload)


def test_group_records_refuse_a_new_field_value():
    family = symmetric(3)
    w = identity(family)
    for record, field in [(family, "kind"), (family, "n"), (w, "family"), (w, "payload")]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert (family.kind, family.n, w.payload) == ("symmetric", 3, (1, 2, 3))


def test_equal_group_elements_are_one_dict_key():
    family = symmetric(3)
    a = GroupElement(family, (2, 1, 3))
    b = apply_generator(1, identity(family))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a: "first", b: "second"} == {a: "second"}
    assert len({a, b, identity(family)}) == 2
    again = GroupFamily("symmetric", 3)
    assert again == family and hash(again) == hash(family)
    assert GroupElement(dihedral(3), (0, 1)) != GroupElement(dihedral(4), (0, 1))


def test_group_records_keep_their_repr_and_keyword_constructors():
    assert repr(symmetric(3)) == "GroupFamily(kind='symmetric', n=3)"
    assert str(symmetric(3)) == "symmetric(3)"
    assert repr(identity(dihedral(3))) == (
        "GroupElement(family=GroupFamily(kind='dihedral', n=3), payload=(0, 0))"
    )
    assert GroupFamily(kind="hypercube", n=2) == hypercube(2)
    assert GroupElement(family=hypercube(2), payload=(0, 1)).payload == (0, 1)
