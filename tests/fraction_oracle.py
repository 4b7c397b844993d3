"""Dense, per-cell ``Fraction`` versions of library operations.

The library reduces on integer numerators over common denominators and
checks the algebra row by row; these are the direct transcriptions of the
definitions it replaced, one ``Fraction`` per cell, kept here as the
oracle the fast versions must equal by ``==``:

* the operator reductions of ``chains``, on dense powers of a scan
  kernel rebuilt from the repeated recipe (multiplied out for the random
  scan), never carried from an earlier power;
* dense evolution ``start * K^ell`` by vector-matrix products;
* the scan kernel as a product of Fraction matrices K_i built from their
  definition, without ``chains``, with its traces, averaged chi-squares and
  pi-weighted cross sums of consecutive powers;
* the same sums with every row of the identity streamed through every
  scan letter on integer numerators, in blocks of rows, by a numpy letter
  loop of its own (the library's path before it read each row of K^m off
  the identity row);
* the action tables built element by element with ``apply_generator``
  and ``length`` (the library's builder before it read them off the
  payloads);
* the dense |W| x |W| matrix of left multiplication in the Hecke algebra,
  built from the right action of the generators, and its trace;
* the symmetric-family closed forms term by term: each generic degree by
  the q-hook formula with every q-integer summed afresh, and the short
  scan summed over every standard tableau.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from hecke_metro import chains, coxeter, hecke, spectral


def tv_distance(p, pi):
    return sum((abs(a - b) for a, b in zip(p.probs, pi.probs)), Fraction(0)) / 2


def chi_square(p, pi):
    return sum(((a - b) ** 2 / b for a, b in zip(p.probs, pi.probs)), Fraction(0))


def check_reversible(K, pi):
    weighted = np.array(pi.probs, dtype=object)[:, None] * np.array(K.matrix, dtype=object)
    return bool((weighted == weighted.T).all())


def check_stationary(K, pi):
    return evolve(K, pi, 1).probs == pi.probs


def evolve(K, start, ell):
    """Exact distribution start * K^ell via repeated vector-matrix products."""
    if ell < 0:
        raise ValueError("negative step count")
    if start.family != K.family:
        raise ValueError("family mismatch")
    probs = np.array(start.probs, dtype=object)
    matrix = np.array(K.matrix, dtype=object)
    for _ in range(ell):
        probs = probs @ matrix
    return chains.Distribution.of(K.family, probs)


def metropolis_kernel(family, theta, i):
    """K_i from its definition, one Fraction per cell, built without chains."""
    tables = coxeter.action_tables(family)
    K = np.full((family.order, family.order), Fraction(0), dtype=object)
    for x, w in enumerate(tables.elements):
        y = tables.index[coxeter.apply_generator(i, w)]
        if tables.lengths[y] > tables.lengths[x]:
            K[x, y] = Fraction(1)
        else:
            K[x, y], K[x, x] = Fraction(theta), 1 - Fraction(theta)
    return K


def dense_scan_kernel(family, theta, scan):
    """The scan kernel (a recipe or "random") as a product of the K_i."""
    kernels = [metropolis_kernel(family, theta, i) for i in coxeter.generators(family)]
    if scan == "random":
        return sum(kernels[1:], kernels[0]) / family.rank
    K = np.identity(family.order, dtype=object) * Fraction(1)
    for i in scan:
        K = K @ kernels[i - 1]
    return K


def _stationary_probs(family, theta):
    weights = [Fraction(theta) ** -int(l) for l in coxeter.action_tables(family).lengths]
    total = sum(weights)
    return np.array([w / total for w in weights], dtype=object)


def dense_evolve(family, theta, scan, start, ell):
    """start * K^ell by vector-matrix products with the dense scan kernel."""
    K = dense_scan_kernel(family, theta, scan)
    probs = np.array(start.probs, dtype=object)
    for _ in range(ell):
        probs = probs @ K
    return probs


def dense_power_sums(family, theta, scan, passes):
    """(tr K^m, <K^m, K^m>_pi - 1, <K^(m-1), K^m>_pi) for m = 1..passes, with
    <A, B>_pi = sum_{x,y} pi(x) A[x,y] B[x,y] / pi(y), on dense Fraction powers."""
    K = dense_scan_kernel(family, theta, scan)
    pi = _stationary_probs(family, theta)
    ratio = pi[:, None] / pi[None, :]
    previous = np.identity(family.order, dtype=object) * Fraction(1)
    out = []
    for _ in range(passes):
        current = previous @ K
        out.append(
            (
                sum(current.diagonal(), Fraction(0)),
                (ratio * current * current).sum() - 1,
                (ratio * previous * current).sum(),
            )
        )
        previous = current
    return out


# cells of identity rows that streamed_power_sums runs through the scan at once
STREAM_BLOCK_CELLS = 1 << 12


def _stream_letter(block, perm, up, a, b):
    """The rows of ``block``, over some den, times K_i, over den*b: a descent
    column z takes the move up from s_i z and its own holding term, an
    ascent column the move down from s_i z."""
    moved = block[:, perm]
    return np.where(up, moved * a, moved * b + block * (b - a))


def streamed_power_sums(family, theta, scan, passes):
    """(tr K^m, <K^m, K^m>_pi - 1, <K^(m-1), K^m>_pi) for m = 1..passes, with
    every row of the identity streamed through every scan letter in blocks of
    ``STREAM_BLOCK_CELLS`` cells, on integer numerators in object arrays: the
    library's path before it derived each row of K^m from the identity row."""
    if passes < 1:
        raise ValueError("need passes >= 1")
    theta = Fraction(theta)
    a, b = theta.numerator, theta.denominator
    tables = coxeter.action_tables(family)
    letters = [(np.array(perm), np.array(up)) for perm, up in zip(tables.perms, tables.ups)]
    lengths = np.array(tables.lengths)
    top = int(lengths.max())
    v = np.array([b ** int(l) * a ** (top - int(l)) for l in lengths], dtype=object)
    u = np.array([a**k * b ** (top - k) for k in range(top + 1)], dtype=object)
    by_length = np.argsort(lengths, kind="stable")
    starts = np.searchsorted(lengths[by_length], np.arange(top + 1))

    def scan_pass(block):
        if scan == "random":
            return sum(_stream_letter(block, perm, up, a, b) for perm, up in letters)
        for i in scan:
            block = _stream_letter(block, *letters[i - 1], a, b)
        return block

    def weighted(rows, A, B):
        per_length = np.add.reduceat((A * B)[:, by_length], starts, axis=1)
        return v[rows] @ (per_length @ u)

    factor = b * family.rank if scan == "random" else b ** len(scan)
    dens = [factor**m for m in range(passes + 1)]
    height = max(1, STREAM_BLOCK_CELLS // family.order)
    traces, squares, cross = [0] * passes, [0] * passes, [0] * passes
    for first in range(0, family.order, height):
        rows = np.arange(first, min(first + height, family.order))
        diagonal = (np.arange(len(rows)), rows)
        previous = np.zeros((len(rows), family.order), dtype=int).astype(object)
        previous[diagonal] = 1
        for m in range(passes):
            current = scan_pass(previous)
            traces[m] += current[diagonal].sum()
            squares[m] += weighted(rows, current, current)
            cross[m] += weighted(rows, previous, current)
            previous = current
    scale = (a * b) ** top
    return [
        (
            Fraction(int(traces[m]), dens[m + 1]),
            Fraction(int(squares[m]), scale * dens[m + 1] ** 2) - 1,
            Fraction(int(cross[m]), scale * dens[m] * dens[m + 1]),
        )
        for m in range(passes)
    ]


def commutes_with_metropolis(K, i):
    """Whether K commutes with the generator kernel K_i, by dense products."""
    A = np.array(K.num, dtype=object)
    B = np.array(chains.scan_kernel(K.family, K.theta, (i,)).num, dtype=object)
    return bool((A @ B == B @ A).all())


def kernel_power(family, theta, scan, m):
    """K^m for the scan (a recipe or "random"), built from scratch: a recipe
    repeated m times letter by letter, the random kernel multiplied out."""
    if scan != "random":
        return chains.scan_kernel(family, theta, tuple(scan) * m)
    K = chains.random_scan_kernel(family, theta)
    step = np.array(K.num, dtype=object)
    num = np.identity(family.order, dtype=int).astype(object)
    for _ in range(m):
        num = num @ step
    return chains.Kernel(family, K.theta, num.tolist(), K.den**m)


def trace_of_power(family, theta, scan, m):
    Km = kernel_power(family, theta, scan, m)
    return Fraction(sum(row[x] for x, row in enumerate(Km.num)), Km.den)


def average_start_chi_square(family, theta, scan, ell):
    pi = chains.stationary(family, theta)
    Kl = kernel_power(family, theta, scan, ell)
    total = Fraction(0)
    for weight, row in zip(pi.probs, Kl.matrix):
        total += weight * chi_square(chains.Distribution.of(family, row), pi)
    return total


@functools.lru_cache(maxsize=None)
def right_action_tables(family):
    """Index permutations and up-masks of w -> w s_i, per generator i."""
    tables = coxeter.action_tables(family)
    lengths = np.array(tables.lengths)
    perms = []
    for i in coxeter.generators(family):
        moved = [coxeter.right_apply_generator(w, i) for w in tables.elements]
        perms.append(np.array([tables.index[v] for v in moved]))
    return perms, [lengths[perm] > lengths for perm in perms]


def action_tables(family):
    """(lengths, perms, ups) of the left action, element by element: the index
    of apply_generator(i, w) for every generator i and element w."""
    elements = coxeter.enumerate(family)
    index = {w: k for k, w in enumerate(elements)}
    lengths = [coxeter.length(w) for w in elements]
    perms = [
        [index[coxeter.apply_generator(i, w)] for w in elements]
        for i in coxeter.generators(family)
    ]
    ups = [[lengths[t] > l for t, l in zip(perm, lengths)] for perm in perms]
    return lengths, perms, ups


def _right_tilde_apply(v, perm, up, theta):
    """Coefficient vector of (sum_w v_w T~_w) * T~_i, given the i-th tables."""
    u = np.zeros(len(v), dtype=object)
    down = ~up
    u[perm[up]] += v[up]
    u[down] += v[down] * (1 - theta)
    u[perm[down]] += v[down] * theta
    return u


def left_mult_matrix(h):
    """Matrix M with M[x, y] = coefficient of T~_y in h * T~_x.

    Rows are source states and columns target states, so for h = T~_i this
    is exactly a Markov transition matrix.  Rows are filled by induction on
    length: row(id) is h itself, and row(x) = row(x s_i) * T~_i for any
    right descent i of x (lengths add, so T~_x = T~_{x s_i} T~_i).
    """
    if h.basis != hecke.TILDE_BASIS:
        raise ValueError("left_mult_matrix expects a T~-basis vector")
    tables = coxeter.action_tables(h.family)
    perms, ups = right_action_tables(h.family)
    n = len(tables.elements)
    M = np.zeros((n, n), dtype=object)
    for w, a in h.coeffs.items():
        M[tables.index[coxeter.identity(h.family)], tables.index[w]] = a
    for x in sorted(range(n), key=lambda k: tables.lengths[k]):
        if tables.lengths[x] == 0:
            continue
        for perm, up in zip(perms, ups):
            if not up[x]:
                # x has a right descent here; x' = x * s_i is shorter
                M[x] = _right_tilde_apply(M[perm[x]], perm, up, h.theta)
                break
    return M


def regular_trace(h):
    """Trace of left multiplication by h on H (basis independent)."""
    M = left_mult_matrix(hecke.to_tilde_basis(h))
    return sum(M.diagonal(), Fraction(0))



def _q_int(q, k):
    """1 + q + ... + q^(k-1), one power at a time."""
    total = q - q
    power = 1 + total
    for _ in range(k):
        total += power
        power *= q
    return total


@functools.lru_cache(maxsize=None)
def symmetric_degree(lam, q):
    """Generic degree t_lam(q) = q^n(lam) [n]_q! / prod_h [h]_q, every
    q-integer summed afresh; a float q gives the float the same steps give."""
    factorial = 1 + (q - q)
    for k in range(1, sum(lam) + 1):
        factorial *= _q_int(q, k)
    val = q ** sum(i * part for i, part in enumerate(lam)) * factorial
    for h in _hooks(lam):
        val /= _q_int(q, h)
    return val


def _hooks(lam):
    """Arm + leg + 1 of every box, row-major."""
    return [
        part - j + sum(1 for below in lam[i + 1 :] if below > j)
        for i, part in enumerate(lam)
        for j in range(part)
    ]


def _blocks(n):
    """(lam, d by the hook length formula, content sum) per partition of n."""
    out = []
    for lam in spectral.partitions(n):
        d = math.factorial(n) // math.prod(_hooks(lam))
        content = sum(j - i for i, part in enumerate(lam) for j in range(part))
        out.append((lam, d, content))
    return out


def long_scan_chisq(n, theta, ell):
    big_l = n * (n - 1) // 2
    total = theta - theta
    for lam, d, c in _blocks(n)[1:]:
        total += symmetric_degree(lam, 1 / theta) * d * theta ** (2 * ell * (big_l - c))
    return total


def long_scan_avg_chisq(n, theta, ell):
    big_l = n * (n - 1) // 2
    return sum(d**2 * theta ** (2 * ell * (big_l - c)) for _, d, c in _blocks(n)[1:])


def long_scan_trace(n, theta, m):
    big_l = n * (n - 1) // 2
    return sum(d**2 * theta ** (m * (big_l - c)) for _, d, c in _blocks(n))


def sum_d_t(n, q):
    return sum(d * symmetric_degree(lam, q) for lam, d, _ in _blocks(n))


def _tableau_sum(n, theta, power, lam):
    """sum over the standard tableaux S of shape lam of theta^(power (n - 1 - c(S(n))))."""
    return sum(
        theta ** (power * (n - 1 - spectral.content_of_n_box(tab)))
        for tab in spectral.standard_tableaux(lam)
    )


def short_scan_chisq(n, theta, ell, averaged=False):
    return sum(
        (d if averaged else symmetric_degree(lam, 1 / theta))
        * _tableau_sum(n, theta, 2 * ell, lam)
        for lam, d, _ in _blocks(n)[1:]
    )


def short_scan_trace(n, theta, m):
    return sum(d * _tableau_sum(n, theta, m, lam) for lam, d, _ in _blocks(n))
