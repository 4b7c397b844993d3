"""Per-cell ``Fraction`` versions of the operator reductions in ``chains``.

The library reduces on integer numerators over common denominators; these
are the direct transcriptions of the definitions it replaced, one
``Fraction`` per cell, kept here as the oracle the fast versions must
equal by ``==``.  Powers of scan kernels are rebuilt from the repeated
recipe, never carried from an earlier power.
"""

from fractions import Fraction

import numpy as np

from hecke_metro import chains


def tv_distance(p, pi):
    return sum((abs(a - b) for a, b in zip(p.probs, pi.probs)), Fraction(0)) / 2


def chi_square(p, pi):
    return sum(((a - b) ** 2 / b for a, b in zip(p.probs, pi.probs)), Fraction(0))


def check_reversible(K, pi):
    weighted = pi.probs[:, None] * K.num
    return bool((weighted == weighted.T).all())


def check_stationary(K, pi):
    return bool((chains.evolve(K, pi, 1).probs == pi.probs).all())


def kernel_power(K, m):
    """K^m: scan kernels rebuilt letter by letter, others multiplied out."""
    n = K.num.shape[0]
    if m == 0:
        return chains.Kernel(K.family, K.theta, np.identity(n, dtype=object), 1, "")
    if isinstance(K.descriptor, tuple) and K.descriptor:
        return chains.scan_kernel(K.family, K.theta, K.descriptor * m)
    num = K.num
    for _ in range(m - 1):
        num = num @ K.num
    return chains.Kernel(K.family, K.theta, num, K.den**m, K.descriptor)


def trace_of_power(K, m):
    Km = kernel_power(K, m)
    return Fraction(int(sum(Km.num.diagonal())), Km.den)


def average_start_chi_square(K, ell):
    pi = chains.stationary(K.family, K.theta)
    Kl = kernel_power(K, ell)
    total = Fraction(0)
    for x in range(Kl.num.shape[0]):
        row = np.array([Fraction(int(v), Kl.den) for v in Kl.num[x]], dtype=object)
        total += pi.probs[x] * chi_square(chains.Distribution(K.family, row), pi)
    return total
