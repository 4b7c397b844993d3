"""Exact arithmetic in the Iwahori-Hecke algebra of a finite Coxeter group.

The algebra H has basis {T_w : w in W} over the rationals (q fixed and
rational here), with

    T_i T_w = T_{s_i w}                     if length goes up,
    T_i T_w = (q-1) T_w + q T_{s_i w}       if length goes down,

so in particular T_i^2 = (q-1) T_i + q.  The rescaled basis
T~_w = q^{-length(w)} T_w turns left multiplication by a generator into a
row-stochastic operation (theta = 1/q):

    T~_i T~_w = T~_{s_i w}                          if length goes up,
    T~_i T~_w = (1-theta) T~_w + theta T~_{s_i w}   if length goes down.

Elements of H are sparse dicts mapping group elements to Fractions, and
every product is computed on those dicts.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import coxeter
from .coxeter import GroupElement, GroupFamily

__all__ = [
    "T_BASIS",
    "TILDE_BASIS",
    "HeckeVector",
    "generator_times",
    "inner_product",
    "product",
    "star",
    "t_unit",
    "tilde_generator_times",
    "tilde_unit",
    "tilde_word",
    "to_t_basis",
    "to_tilde_basis",
    "trace_t",
]

T_BASIS = "T"
TILDE_BASIS = "Ttilde"


@dataclass
class HeckeVector:
    """Sparse element of H: coefficients on the T or T~ basis."""

    family: GroupFamily
    q: Fraction
    basis: str
    coeffs: dict[GroupElement, Fraction]

    @property
    def theta(self) -> Fraction:
        return 1 / self.q

    def coefficient(self, w: GroupElement) -> Fraction:
        return self.coeffs.get(w, Fraction(0))


def _clean(coeffs: dict) -> dict:
    return {w: a for w, a in coeffs.items() if a != 0}


def t_unit(family: GroupFamily, q, w: GroupElement | None = None) -> HeckeVector:
    """The basis element T_w (default T_id)."""
    if w is None:
        w = coxeter.identity(family)
    return HeckeVector(family, coxeter.check_q(q), T_BASIS, {w: Fraction(1)})


def tilde_unit(family: GroupFamily, q, w: GroupElement | None = None) -> HeckeVector:
    """The basis element T~_w (default T~_id)."""
    if w is None:
        w = coxeter.identity(family)
    return HeckeVector(family, coxeter.check_q(q), TILDE_BASIS, {w: Fraction(1)})


def _generator_times(i: int, h: HeckeVector, hold, move) -> HeckeVector:
    """The i-th generator of h's basis times h: a rise moves each term to
    s_i w; a descent keeps ``hold`` times it on w and moves ``move`` times it."""
    out: dict[GroupElement, Fraction] = {}
    for w, a in h.coeffs.items():
        sw = coxeter.apply_generator(i, w)
        if coxeter.length(sw) > coxeter.length(w):
            out[sw] = out.get(sw, Fraction(0)) + a
        else:
            out[w] = out.get(w, Fraction(0)) + hold * a
            out[sw] = out.get(sw, Fraction(0)) + move * a
    return HeckeVector(h.family, h.q, h.basis, _clean(out))


def generator_times(i: int, h: HeckeVector) -> HeckeVector:
    """T_i * h in the T basis."""
    if h.basis != T_BASIS:
        raise ValueError("generator_times needs a T-basis vector")
    return _generator_times(i, h, h.q - 1, h.q)


def tilde_generator_times(i: int, h: HeckeVector) -> HeckeVector:
    """T~_i * h in the T~ basis."""
    if h.basis != TILDE_BASIS:
        raise ValueError("tilde_generator_times needs a T~-basis vector")
    return _generator_times(i, h, 1 - h.theta, h.theta)


def tilde_word(family: GroupFamily, q, word) -> HeckeVector:
    """Product T~_{i_1} T~_{i_2} ... T~_{i_k} for word = (i_1, ..., i_k)."""
    acc = tilde_unit(family, q)
    for i in reversed(tuple(word)):
        acc = tilde_generator_times(i, acc)
    return acc


def product(h1: HeckeVector, h2: HeckeVector) -> HeckeVector:
    """Algebra product h1 * h2 (same family, q, and basis on both sides).

    Each basis term of h1 is expanded along a reduced word, which is valid
    because lengths add along reduced words (T_w = T_{i_1} ... T_{i_k}).
    """
    if (h1.family, h1.q, h1.basis) != (h2.family, h2.q, h2.basis):
        raise ValueError("operands live in different algebras or bases")
    times = generator_times if h1.basis == T_BASIS else tilde_generator_times
    out: dict[GroupElement, Fraction] = {}
    for z, a in h1.coeffs.items():
        acc = h2
        for i in reversed(coxeter.reduced_word(z)):
            acc = times(i, acc)
        for w, b in acc.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + a * b
    return HeckeVector(h1.family, h1.q, h1.basis, _clean(out))


def star(h: HeckeVector) -> HeckeVector:
    """The anti-automorphism sending T_w to T_{w^{-1}} (same rule on T~)."""
    out = {coxeter.inverse(w): a for w, a in h.coeffs.items()}
    return HeckeVector(h.family, h.q, h.basis, out)


def _rebase(h: HeckeVector, basis: str, sign: int) -> HeckeVector:
    """h on ``basis``, each coefficient times q^(sign * length(w)) on the way."""
    if h.basis == basis:
        return h
    out = {w: a * h.q ** (sign * coxeter.length(w)) for w, a in h.coeffs.items()}
    return HeckeVector(h.family, h.q, basis, _clean(out))


def to_t_basis(h: HeckeVector) -> HeckeVector:
    return _rebase(h, T_BASIS, -1)


def to_tilde_basis(h: HeckeVector) -> HeckeVector:
    return _rebase(h, TILDE_BASIS, 1)


def trace_t(h: HeckeVector) -> Fraction:
    """The trace sending T_w to P_W(q) [w = id]; extends linearly.

    The same formula applies verbatim on the T~ basis because the identity
    coefficient is unchanged by the rescaling.
    """
    p = coxeter.poincare_polynomial(h.family, h.q)
    return p * h.coefficient(coxeter.identity(h.family))


def inner_product(h1: HeckeVector, h2: HeckeVector) -> Fraction:
    """Bilinear form <h1, h2> = trace_t(h1 * h2).

    On basis elements: <T_x, T_{y^{-1}}> = [x == y] q^{length(y)} P_W(q).
    """
    return trace_t(product(h1, h2))
