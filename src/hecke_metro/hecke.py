"""Exact arithmetic in the Iwahori-Hecke algebra of a finite Coxeter group.

The algebra H has basis {T_w : w in W} over the rationals (q fixed and
rational here), with T_i^2 = (q-1) T_i + q.  Everything here works on the
rescaled basis T~_w = q^{-length(w)} T_w, which turns left multiplication
by a generator into a row-stochastic operation (theta = 1/q):

    T~_i T~_w = T~_{s_i w}                          if length goes up,
    T~_i T~_w = (1-theta) T~_w + theta T~_{s_i w}   if length goes down.

An element of H is a :class:`HeckeVector`, a named tuple holding a sparse
dict that maps group elements to Fractions, the coefficients on the T~
basis; every product builds a new dict, and no field is reassigned.
Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import coxeter
from .coxeter import GroupElement, GroupFamily

__all__ = [
    "HeckeVector",
    "product",
    "tilde_generator_times",
    "tilde_unit",
]


class HeckeVector(NamedTuple):
    """Sparse element of H: coefficients on the T~ basis."""

    family: GroupFamily
    q: Fraction
    coeffs: dict[GroupElement, Fraction]

    @property
    def theta(self) -> Fraction:
        return 1 / self.q


def _clean(coeffs: dict) -> dict:
    return {w: a for w, a in coeffs.items() if a != 0}


def tilde_unit(family: GroupFamily, q, w: GroupElement | None = None) -> HeckeVector:
    """The basis element T~_w (default T~_id)."""
    if w is None:
        w = coxeter.identity(family)
    return HeckeVector(family, coxeter.check_q(q), {w: Fraction(1)})


def tilde_generator_times(i: int, h: HeckeVector) -> HeckeVector:
    """T~_i * h: a rise moves each term to s_i w; a descent keeps 1 - theta
    times it on w and moves theta times it.

    In S_2 at q = 2, T~_1 T~_{s_1} = (1/2) T~_{s_1} + (1/2) T~_id:

    >>> s_1 = coxeter.longest_element(coxeter.symmetric(2))
    >>> h = tilde_generator_times(1, tilde_unit(s_1.family, 2, s_1))
    >>> sorted((coxeter.length(w), str(a)) for w, a in h.coeffs.items())
    [(0, '1/2'), (1, '1/2')]
    """
    hold, move = 1 - h.theta, h.theta
    out: dict[GroupElement, Fraction] = {}
    for w, a in h.coeffs.items():
        sw = coxeter.apply_generator(i, w)
        if coxeter.length(sw) > coxeter.length(w):
            out[sw] = out.get(sw, Fraction(0)) + a
        else:
            out[w] = out.get(w, Fraction(0)) + hold * a
            out[sw] = out.get(sw, Fraction(0)) + move * a
    return HeckeVector(h.family, h.q, _clean(out))


def product(h1: HeckeVector, h2: HeckeVector) -> HeckeVector:
    """Algebra product h1 * h2 (same family and q on both sides).

    Each basis term of h1 is expanded along a reduced word, which is valid
    because lengths add along reduced words (T~_w = T~_{i_1} ... T~_{i_k}).
    """
    if (h1.family, h1.q) != (h2.family, h2.q):
        raise ValueError("operands live in different algebras")
    out: dict[GroupElement, Fraction] = {}
    for z, a in h1.coeffs.items():
        acc = h2
        for i in reversed(coxeter.reduced_word(z)):
            acc = tilde_generator_times(i, acc)
        for w, b in acc.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + a * b
    return HeckeVector(h1.family, h1.q, _clean(out))
