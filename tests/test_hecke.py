"""Algebra-level tests: the quadratic and braid relations, products,
the star anti-automorphism, traces, and left-multiplication matrices."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import tilde_word
from hecke_metro import coxeter, hecke
from hecke_metro.coxeter import dihedral, hypercube, symmetric
from hecke_metro.hecke import HeckeVector, product, tilde_unit

QS = [Fraction(2), Fraction(3), Fraction(10, 9)]
FAMILIES = [symmetric(3), symmetric(4), hypercube(3), dihedral(5), dihedral(6)]


def test_module_doctests():
    failed, attempted = doctest.testmod(hecke)
    assert attempted > 0
    assert failed == 0


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("q", QS)
def test_quadratic_relation_in_the_tilde_basis(family, q):
    # T~_i^2 = (1 - theta) T~_i + theta T~_id, theta = 1/q
    theta = 1 / q
    for i in coxeter.generators(family):
        si = coxeter.apply_generator(i, coxeter.identity(family))
        square = product(tilde_unit(family, q, si), tilde_unit(family, q, si))
        expected = {coxeter.identity(family): theta, si: 1 - theta}
        assert square.coeffs == {w: a for w, a in expected.items() if a != 0}


@pytest.mark.parametrize("q", QS)
def test_braid_relations(q):
    # adjacent transpositions: 121 = 212
    s3 = symmetric(3)
    assert tilde_word(s3, q, (1, 2, 1)).coeffs == tilde_word(s3, q, (2, 1, 2)).coeffs
    # commuting generators
    h3 = hypercube(3)
    assert tilde_word(h3, q, (1, 3)).coeffs == tilde_word(h3, q, (3, 1)).coeffs
    s4 = symmetric(4)
    assert tilde_word(s4, q, (1, 3)).coeffs == tilde_word(s4, q, (3, 1)).coeffs
    # the order-5 dihedral braid: 12121 = 21212
    d5 = dihedral(5)
    assert (
        tilde_word(d5, q, (1, 2, 1, 2, 1)).coeffs
        == tilde_word(d5, q, (2, 1, 2, 1, 2)).coeffs
    )


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_tilde_word_on_reduced_words_gives_basis_elements(family):
    # well-definedness: the product along any reduced word is T~_w itself
    q = Fraction(7, 3)
    for w in coxeter.enumerate(family):
        h = tilde_word(family, q, coxeter.reduced_word(w))
        assert h.coeffs == {w: Fraction(1)}


def sampled_vectors(family, q):
    pool = coxeter.enumerate(family)
    coeff = st.integers(min_value=-3, max_value=3)

    @st.composite
    def vec(draw):
        support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        return HeckeVector(family, q, {w: Fraction(draw(coeff)) for w in support})

    return vec()


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_product_is_associative_and_star_reverses(data):
    family = symmetric(4)
    q = Fraction(2)
    a = data.draw(sampled_vectors(family, q))
    b = data.draw(sampled_vectors(family, q))
    c = data.draw(sampled_vectors(family, q))
    assert product(product(a, b), c).coeffs == product(a, product(b, c)).coeffs
    star = oracle.star
    assert star(product(a, b)).coeffs == product(star(b), star(a)).coeffs
    assert star(star(a)).coeffs == a.coeffs


def test_star_sends_basis_elements_to_inverses():
    family = dihedral(5)
    q = Fraction(3)
    for w in coxeter.enumerate(family):
        ((v, c),) = oracle.star(tilde_unit(family, q, w)).coeffs.items()
        assert c == 1 and coxeter.multiply(v, w) == coxeter.identity(family)


def test_trace_values():
    family = symmetric(3)
    q = Fraction(2)
    # P_W(2) for the 6 permutations with lengths 0,1,1,2,2,3
    assert coxeter.poincare_polynomial(family, q) == 21
    assert oracle.regular_trace(tilde_unit(family, q)) == 6


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("q", [Fraction(2), Fraction(10, 9)])
def test_left_mult_matrices_are_stochastic_and_antihomomorphic(family, q):
    gens = list(coxeter.generators(family))
    mats = {i: oracle.left_mult_matrix(tilde_word(family, q, (i,))) for i in gens}
    for M in mats.values():
        assert all(sum(row, Fraction(0)) == 1 for row in M)
        assert all(a >= 0 for row in M for a in row)
    # M(g) M(h) = M(h * g): matrices compose contravariantly
    i, j = gens[0], gens[-1]
    hij = product(tilde_word(family, q, (j,)), tilde_word(family, q, (i,)))
    assert (mats[i] @ mats[j] == oracle.left_mult_matrix(hij)).all()


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_squared_longest_element_is_central(family):
    q = Fraction(2)
    w0 = coxeter.longest_element(family)
    tw0 = tilde_word(family, q, coxeter.reduced_word(w0))
    w0sq = product(tw0, tw0)
    for i in coxeter.generators(family):
        ti = tilde_word(family, q, (i,))
        assert product(w0sq, ti).coeffs == product(ti, w0sq).coeffs


def test_regular_trace_is_linear_and_matches_matrix_diagonal():
    family = hypercube(3)
    q = Fraction(3)
    a = tilde_unit(family, q, coxeter.longest_element(family))
    b = tilde_unit(family, q)
    combo = HeckeVector(
        family,
        q,
        {
            coxeter.longest_element(family): Fraction(2),
            coxeter.identity(family): Fraction(-1, 3),
        },
    )
    assert oracle.regular_trace(combo) == (
        2 * oracle.regular_trace(a) - Fraction(1, 3) * oracle.regular_trace(b)
    )
    M = oracle.left_mult_matrix(combo)
    assert oracle.regular_trace(combo) == sum(M.diagonal(), Fraction(0))


@pytest.mark.parametrize("family", [symmetric(3), hypercube(3), dihedral(5)], ids=str)
def test_tilde_generator_out_of_range_is_refused(family):
    for i in (0, family.rank + 1):
        with pytest.raises(ValueError, match=f"generator index {i} out of range"):
            hecke.tilde_generator_times(i, tilde_unit(family, Fraction(2)))


def test_mixed_family_or_q_products_are_rejected():
    with pytest.raises(ValueError):
        product(
            tilde_unit(symmetric(3), Fraction(2)), tilde_unit(symmetric(4), Fraction(2))
        )
    with pytest.raises(ValueError):
        product(
            tilde_unit(symmetric(3), Fraction(2)), tilde_unit(symmetric(3), Fraction(3))
        )


def test_hecke_vector_refuses_a_new_field_value():
    h = tilde_unit(symmetric(3), 2)
    for field in ("family", "q", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(h, field, getattr(h, field))
    assert h == HeckeVector(family=symmetric(3), q=Fraction(2), coeffs=dict(h.coeffs))
    assert h.theta == Fraction(1, 2)
