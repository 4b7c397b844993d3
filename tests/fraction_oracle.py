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
  definition, without ``chains``, each product reading only the nonzero
  cells of K_i, with the traces, averaged chi-squares and pi-weighted
  cross sums of its consecutive powers, each power carried from the one
  before through the same products;
* the same sums with every row of the identity streamed through every
  scan letter on integer numerators, in blocks of rows, by a numpy letter
  loop of its own (the library's path before it read each row of K^m off
  the identity row);
* the action tables built element by element with ``apply_generator``
  and ``length`` (the library's builder before it read them off the
  payloads);
* the group inverse and the right action w -> w s_i, on the payloads;
* the dense |W| x |W| matrix of left multiplication in the Hecke algebra,
  built from that right action, and its trace; the anti-automorphism
  ``star`` sending T~_w to T~_{w^{-1}}; the product ``tilde_word`` of the
  generators T~_i of a word, one left multiplication at a time;
* the symmetric-family closed forms term by term: each generic degree by
  the q-hook formula with every q-integer summed afresh, and the short
  scan summed over every standard tableau; the short-scan trace
  ``short_scan_trace_symmetric`` read off the library's own power sum,
  which no command prints;
* the partition data those forms read (conjugate, hook lengths, content
  sum), and the three inequalities on generic degrees, dimensions and
  contents (Lemma 7.2) evaluated exactly for one partition;
* the hypercube long-scan forms as block sums, the labels grouped by
  weight and by overlap with the start (the library's forms before it
  multiplied them out);
* the law of the symmetric-family insertion sampler, expanded over every
  choice of every stage in exact rationals (``insertion_distribution``).
"""

import functools
import math
from dataclasses import dataclass
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


@functools.lru_cache(maxsize=None)
def positions(family):
    """The elements of ``coxeter.enumerate`` and {element: position}, built
    once per family by enumeration, not read off ``coxeter.index``."""
    elements = coxeter.enumerate(family)
    return elements, {w: k for k, w in enumerate(elements)}


def metropolis_kernel(family, theta, i):
    """K_i from its definition, one Fraction per cell, built without chains."""
    elements, index = positions(family)
    lengths = coxeter.action_tables(family).lengths
    K = np.full((family.order, family.order), Fraction(0), dtype=object)
    for x, w in enumerate(elements):
        y = index[coxeter.apply_generator(i, w)]
        if lengths[y] > lengths[x]:
            K[x, y] = Fraction(1)
        else:
            K[x, y], K[x, x] = Fraction(theta), 1 - Fraction(theta)
    return K


def _times_generator(K, Ki):
    """K @ Ki for a generator kernel Ki: column y of the product needs only
    the rows z of column y of Ki that are nonzero, at most two of them."""
    out = np.empty_like(K)
    for y in range(Ki.shape[1]):
        out[:, y] = sum(K[:, z] * Ki[z, y] for z in np.flatnonzero(Ki[:, y]))
    return out


def _scan_pass(M, kernels, scan):
    """M times one pass of the scan kernel, carried through the sparse K_i one
    letter at a time; for the random scan, the mean of the one-letter products."""
    if scan == "random":
        products = [_times_generator(M, Ki) for Ki in kernels]
        return sum(products[1:], products[0]) / len(kernels)
    for i in scan:
        M = _times_generator(M, kernels[i - 1])
    return M


def dense_scan_kernel(family, theta, scan):
    """The scan kernel (a recipe or "random") as a product of the K_i."""
    kernels = [metropolis_kernel(family, theta, i) for i in coxeter.generators(family)]
    return _scan_pass(np.identity(family.order, dtype=object) * Fraction(1), kernels, scan)


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
    """(tr K^m, <K^m, K^m>_pi - 1) for m = 1..passes, with
    <A, A>_pi = sum_{x,y} pi(x) A[x,y]^2 / pi(y), on dense Fraction powers,
    each carried from the one before through the sparse K_i, |W|^2 cells a letter."""
    kernels = [metropolis_kernel(family, theta, i) for i in coxeter.generators(family)]
    pi = _stationary_probs(family, theta)
    ratio = pi[:, None] / pi[None, :]
    power = np.identity(family.order, dtype=object) * Fraction(1)
    out = []
    for _ in range(passes):
        power = _scan_pass(power, kernels, scan)
        out.append((sum(power.diagonal(), Fraction(0)), (ratio * power * power).sum() - 1))
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
    """(tr K^m, <K^m, K^m>_pi - 1) for m = 1..passes, with
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

    def weighted_square(rows, A):
        per_length = np.add.reduceat((A * A)[:, by_length], starts, axis=1)
        return v[rows] @ (per_length @ u)

    factor = b * family.rank if scan == "random" else b ** len(scan)
    height = max(1, STREAM_BLOCK_CELLS // family.order)
    traces, squares = [0] * passes, [0] * passes
    for first in range(0, family.order, height):
        rows = np.arange(first, min(first + height, family.order))
        diagonal = (np.arange(len(rows)), rows)
        block = np.zeros((len(rows), family.order), dtype=int).astype(object)
        block[diagonal] = 1
        for m in range(passes):
            block = scan_pass(block)
            traces[m] += block[diagonal].sum()
            squares[m] += weighted_square(rows, block)
    scale = (a * b) ** top
    return [
        (
            Fraction(int(traces[m]), factor ** (m + 1)),
            Fraction(int(squares[m]), scale * factor ** (2 * m + 2)) - 1,
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
    K = chains.scan_kernel(family, theta, "random")
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


def inverse(w):
    """w^-1: the inverse permutation, w itself on the hypercube, and on the
    dihedral group each reflection itself and the rotation r^k as r^-k."""
    fam = w.family
    if fam.kind == "symmetric":
        inv = [0] * fam.n
        for pos, val in zip(range(1, fam.n + 1), w.payload):
            inv[val - 1] = pos
        return coxeter.GroupElement(fam, tuple(inv))
    if fam.kind == "hypercube":
        return w
    k, f = w.payload
    return w if f == 1 else coxeter.GroupElement(fam, ((-k) % fam.n, 0))


def right_apply_generator(w, i):
    """Right action w * s_i."""
    fam = w.family
    if fam.kind == "symmetric":
        # swap *positions* i and i+1
        p = list(w.payload)
        p[i - 1], p[i] = p[i], p[i - 1]
        return coxeter.GroupElement(fam, tuple(p))
    if fam.kind == "hypercube":
        return coxeter.apply_generator(i, w)
    return coxeter.multiply(w, coxeter.apply_generator(i, coxeter.identity(fam)))


@functools.lru_cache(maxsize=None)
def right_action_tables(family):
    """Index permutations and up-masks of w -> w s_i, per generator i."""
    elements, index = positions(family)
    lengths = np.array(coxeter.action_tables(family).lengths)
    perms = []
    for i in coxeter.generators(family):
        moved = [right_apply_generator(w, i) for w in elements]
        perms.append(np.array([index[v] for v in moved]))
    return perms, [lengths[perm] > lengths for perm in perms]


def action_tables(family):
    """(lengths, perms, ups) of the left action, element by element: the index
    of apply_generator(i, w) for every generator i and element w."""
    elements, index = positions(family)
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
    elements, index = positions(h.family)
    lengths = coxeter.action_tables(h.family).lengths
    perms, ups = right_action_tables(h.family)
    n = len(elements)
    M = np.zeros((n, n), dtype=object)
    for w, a in h.coeffs.items():
        M[index[coxeter.identity(h.family)], index[w]] = a
    for x in sorted(range(n), key=lambda k: lengths[k]):
        if lengths[x] == 0:
            continue
        for perm, up in zip(perms, ups):
            if not up[x]:
                # x has a right descent here; x' = x * s_i is shorter
                M[x] = _right_tilde_apply(M[perm[x]], perm, up, h.theta)
                break
    return M


def regular_trace(h):
    """Trace of left multiplication by h on H (basis independent)."""
    return sum(left_mult_matrix(h).diagonal(), Fraction(0))


def star(h):
    """The anti-automorphism sending T~_w to T~_{w^{-1}}."""
    out = {inverse(w): a for w, a in h.coeffs.items()}
    return hecke.HeckeVector(h.family, h.q, out)


def tilde_word(family, q, word):
    """Product T~_{i_1} T~_{i_2} ... T~_{i_k} for word = (i_1, ..., i_k)."""
    acc = hecke.tilde_unit(family, q)
    for i in reversed(tuple(word)):
        acc = hecke.tilde_generator_times(i, acc)
    return acc


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
    for h in hook_lengths(lam):
        val /= _q_int(q, h)
    return val


def conjugate_partition(lam):
    """Transpose of the diagram: column lengths read off as a partition."""
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def hook_lengths(lam):
    """Arm + leg + 1 of every box, row-major."""
    return [
        part - j + sum(1 for below in lam[i + 1 :] if below > j)
        for i, part in enumerate(lam)
        for j in range(part)
    ]


def content_sum(lam):
    """Sum of ``column - row`` over all boxes of the diagram."""
    return sum(j - i for i, part in enumerate(lam) for j in range(part))


def _blocks(n):
    """(lam, d by the hook length formula, content sum) per partition of n."""
    out = []
    for lam in spectral.partitions(n):
        d = math.factorial(n) // math.prod(hook_lengths(lam))
        out.append((lam, d, content_sum(lam)))
    return out


@dataclass(frozen=True)
class DegreeBoundReport:
    """Outcome of the three standard inequalities for one partition:

    * ``degree_ok``:        ``t_lam <= theta^(C(lam_1,2) - C(n,2)) d_lam``,
    * ``dimension_sum_ok``: ``sum_{mu_1 = lam_1} d_mu^2 <= n^(2j)/j!`` with
      ``j = n - lam_1``,
    * ``content_ok``:       ``c_lam`` is at most ``C(lam_1,2) +
      (n-lam_1)(n-lam_1-3)/2`` when ``lam_1 >= n/2`` and ``n^2/4 - n``
      when ``lam_1 <= n/2``.
    """

    degree_ok: bool
    dimension_sum_ok: bool
    content_ok: bool


def lemma_7_2_bounds(lam, theta):
    """Exactly evaluate the three inequalities for ``lam`` at rational
    ``theta`` (see `DegreeBoundReport`)."""
    theta = coxeter.check_theta(theta)
    if not isinstance(theta, Fraction):
        raise ValueError("exact checks require rational theta")
    n = sum(lam)
    j = n - lam[0]
    blocks = _blocks(n)
    d = next(d for mu, d, _ in blocks if mu == lam)
    degree_ok = symmetric_degree(lam, 1 / theta) <= (
        theta ** (math.comb(lam[0], 2) - math.comb(n, 2)) * d
    )

    square_sum = sum(d_mu**2 for mu, d_mu, _ in blocks if mu[0] == lam[0])
    if j == 0:
        dimension_sum_ok = square_sum == 1
    else:
        dimension_sum_ok = square_sum <= Fraction(n ** (2 * j), math.factorial(j))

    if 2 * lam[0] >= n:
        content_ok = content_sum(lam) <= Fraction(
            2 * math.comb(lam[0], 2) + (n - lam[0]) * (n - lam[0] - 3), 2
        )
    else:
        content_ok = content_sum(lam) <= Fraction(n * n, 4) - n

    return DegreeBoundReport(degree_ok, dimension_sum_ok, content_ok)


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


def short_scan_trace_symmetric(n, theta, m):
    """Trace of the m-th power of the short-scan kernel on the symmetric
    family, from the library's power sum over removable corners plus the
    trivial block."""
    return 1 + spectral._short_power_sum(n, coxeter.check_theta(theta), m)


def hypercube_long_scan_chisq(n, theta, ell, bits):
    """sum over labels lam != 0 of theta^((4 ell - 1)|lam| + 2 lam.bits),
    the labels of weight j meeting the start's w ones in k places counted
    by C(w, k) C(n - w, j - k)."""
    w = sum(bits)
    total = theta - theta
    for j in range(1, n + 1):
        for k in range(min(j, w) + 1):
            mult = math.comb(w, k) * math.comb(n - w, j - k)
            total += mult * theta ** ((4 * ell - 1) * j + 2 * k)
    return total


def hypercube_long_scan_avg_chisq(n, theta, ell):
    return sum(math.comb(n, j) * theta ** (4 * ell * j) for j in range(1, n + 1))


def hypercube_long_scan_trace(n, theta, m):
    return sum(math.comb(n, j) * theta ** (2 * m * j) for j in range(n + 1))


def insertion_distribution(n, theta):
    """Exact distribution induced by the insertion sampler on the
    symmetric family, via symbolic expansion of all stage choices.

    Equals ``stationary(symmetric(n), theta)`` exactly; this equality is
    what fixes the slot-numbering convention of ``sampler.mallows_sample``.
    """
    theta = coxeter.check_theta(theta)
    if isinstance(theta, float):
        raise ValueError("exact expansion requires rational theta")
    if n < 1:
        raise ValueError("need n >= 1")
    family = coxeter.symmetric(n)
    weights = {(1,): Fraction(1)}
    for i in range(2, n + 1):
        norm = sum(theta**k for k in range(i))
        grown = {}
        for word, p in weights.items():
            for k in range(1, i + 1):
                extended = word[: k - 1] + (i,) + word[k - 1 :]
                grown[extended] = (
                    grown.get(extended, Fraction(0)) + p * theta ** (k - 1) / norm
                )
        weights = grown
    return chains.Distribution.of(
        family, [weights[w.payload] for w in coxeter.enumerate(family)]
    )
