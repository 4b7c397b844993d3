"""Acceptance gate: ten criteria, one printed verdict line each.

Every closed form is checked against an independent brute-force engine kept
inside this file.  The engine knows nothing about the algebra: it builds the
Metropolis moves directly from the length function (always accept a move up,
accept a move down with probability theta) and keeps everything as integer
matrices over a common power-of-theta denominator, so all comparisons are
exact rational arithmetic unless a criterion explicitly states a float
tolerance.
"""

import contextlib
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import fraction_oracle as oracle
from hecke_metro import chains, coxeter, sampler, spectral
from hecke_metro.coxeter import dihedral, hypercube, symmetric

THETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10))
FAMILIES = (
    [symmetric(n) for n in range(2, 6)]
    + [hypercube(n) for n in range(1, 9)]
    + [dihedral(n) for n in range(3, 11)]
)


@contextlib.contextmanager
def verdict(capsys, number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:>2}: {label}")


# ---------------------------------------------------------------------------
# independent brute-force engine


class BruteForce:
    """Exact chain arithmetic straight from the length function."""

    def __init__(self, family, theta):
        theta = Fraction(theta)
        self.family = family
        self.tn, self.td = theta.numerator, theta.denominator
        self.stay = self.td - self.tn
        self.elements = list(coxeter.enumerate(family))
        self.N = len(self.elements)
        self.index = {w: k for k, w in enumerate(self.elements)}
        self.lengths = [coxeter.length(w) for w in self.elements]
        self.rank = len(coxeter.generators(family))
        self.nb, self.up = {}, {}
        for i in coxeter.generators(family):
            targets = np.array(
                [self.index[coxeter.apply_generator(i, w)] for w in self.elements]
            )
            self.nb[i] = targets
            self.up[i] = np.array(
                [self.lengths[t] > l for t, l in zip(targets, self.lengths)]
            )
        q = Fraction(self.td, self.tn)
        weights = [q**l for l in self.lengths]
        total = sum(weights)
        self.pi = [w / total for w in weights]
        self.inv_pi = np.array([1 / p for p in self.pi], dtype=object)
        self.id_index = self.index[coxeter.identity(family)]
        self._powers = {}

    # matrix updates; every letter multiplies the denominator by td

    def left_letter(self, i, num):
        moved = num[self.nb[i]]
        return np.where(
            self.up[i][:, None], self.td * moved, self.tn * moved + self.stay * num
        )

    def right_letter(self, i, num):
        out = np.zeros_like(num)
        w_move = np.where(self.up[i], self.td, self.tn)
        out[:, self.nb[i]] = num * w_move[None, :]
        down = ~self.up[i]
        out[:, down] += num[:, down] * self.stay
        return out

    def right_vec(self, i, vec):
        out = np.zeros(self.N, dtype=object)
        w_move = np.where(self.up[i], self.td, self.tn)
        out[self.nb[i]] = vec * w_move
        down = ~self.up[i]
        out[down] += vec[down] * self.stay
        return out

    def identity_matrix(self):
        num = np.zeros((self.N, self.N), dtype=object)
        num[np.arange(self.N), np.arange(self.N)] = 1
        return num

    def scan_power(self, recipe, k):
        """Integer matrix and denominator of the k-th power of a scan."""
        key = (tuple(recipe), k)
        if key not in self._powers:
            if k == 0:
                self._powers[key] = (self.identity_matrix(), 1)
            else:
                num, den = self.scan_power(recipe, k - 1)
                for i in reversed(recipe):
                    num = self.left_letter(i, num)
                    den *= self.td
                self._powers[key] = (num, den)
        return self._powers[key]

    def scan_vector(self, recipe, start_index, passes):
        vec = np.zeros(self.N, dtype=object)
        vec[start_index] = 1
        den = 1
        for _ in range(passes):
            for i in recipe:
                vec = self.right_vec(i, vec)
                den *= self.td
        return vec, den

    def random_walk_vector(self, start_index, steps):
        vec = np.zeros(self.N, dtype=object)
        vec[start_index] = 1
        den = 1
        for _ in range(steps):
            out = np.zeros(self.N, dtype=object)
            for i in coxeter.generators(self.family):
                out = out + self.right_vec(i, vec)
            vec = out
            den *= self.td * self.rank
        return vec, den

    # exact statistics

    def chisq_vec(self, vec, den):
        raw = (vec * vec) @ self.inv_pi
        return raw / (Fraction(den) ** 2) - 1

    def chisq_rows(self, num, den):
        raw = (num * num) @ self.inv_pi
        d2 = Fraction(den) ** 2
        return [x / d2 - 1 for x in raw]

    def averaged_chisq(self, num, den):
        return sum(p * x for p, x in zip(self.pi, self.chisq_rows(num, den)))

    def trace(self, num, den):
        return Fraction(int(num.trace()), den)


@functools.lru_cache(maxsize=None)
def brute(family, theta):
    return BruteForce(family, theta)


def long_recipe(family):
    return chains.long_recipe(family)


# ---------------------------------------------------------------------------
# 1. single-generator kernels against the algebra


def test_criterion_01_generator_kernels_equal_left_multiplication(capsys):
    with verdict(
        capsys, 1, "single-generator kernels equal left multiplication (exact)"
    ):
        for family in FAMILIES:
            for theta in THETAS:
                q = 1 / theta
                for i in coxeter.generators(family):
                    K = chains.scan_kernel(family, theta, (i,))
                    L = oracle.left_mult_matrix(oracle.tilde_word(family, q, (i,)))
                    assert (K.matrix == L).all()


# ---------------------------------------------------------------------------
# 2. full-scan chi-square closed forms


def _dihedral_start_form(n, theta, ell):
    return (
        theta ** ((4 * ell - 1) * n)
        + theta ** ((2 * ell - 1) * n)
        * ((theta**2 - 1) * (theta**n - 1) / (theta - 1) ** 2 - 1)
        - theta ** (2 * ell * n)
    )


def _dihedral_avg_form(n, theta, ell):
    return theta ** (4 * ell * n) + (2 * n - 2) * theta ** (2 * ell * n)


def test_criterion_02_long_scan_chisq_closed_forms(capsys):
    with verdict(
        capsys, 2, "full-scan chi-square closed forms equal exact evolution"
    ):
        for family in FAMILIES:
            recipe = long_recipe(family)
            for theta in THETAS:
                engine = brute(family, theta)
                for ell in (1, 2, 3):
                    num, den = engine.scan_power(recipe, ell)
                    start = engine.chisq_vec(num[engine.id_index], den)
                    averaged = engine.averaged_chisq(num, den)
                    assert spectral.long_scan_chisq(family, theta, ell) == start
                    assert spectral.long_scan_avg_chisq(family, theta, ell) == averaged
                    if family.kind == "dihedral":
                        n = family.n
                        assert start == _dihedral_start_form(n, theta, ell)
                        assert averaged == _dihedral_avg_form(n, theta, ell)


# ---------------------------------------------------------------------------
# 3. symmetric short scan: tableau sums and traces


def test_criterion_03_short_scan_tableau_formulas(capsys):
    with verdict(
        capsys, 3, "short-scan tableau formulas equal exact evolution and traces"
    ):
        for n in (3, 4, 5):
            family = symmetric(n)
            recipe = chains.short_recipe(family)
            tableau_data = [
                (len(spectral.standard_tableaux(lam)), tab)
                for lam in spectral.partitions(n)
                for tab in spectral.standard_tableaux(lam)
            ]
            for theta in THETAS:
                engine = brute(family, theta)
                for ell in (1, 2, 3):
                    num, den = engine.scan_power(recipe, ell)
                    start = engine.chisq_vec(num[engine.id_index], den)
                    averaged = engine.averaged_chisq(num, den)
                    assert spectral.short_scan_chisq_symmetric(n, theta, ell) == start
                    assert (
                        spectral.short_scan_chisq_symmetric(n, theta, ell, averaged=True)
                        == averaged
                    )
                for m in range(1, 6):
                    num, den = engine.scan_power(recipe, m)
                    tableau_sum = sum(
                        d * theta ** (m * (n - 1 - spectral.content_of_n_box(tab)))
                        for d, tab in tableau_data
                    )
                    assert engine.trace(num, den) == tableau_sum
                    assert oracle.short_scan_trace_symmetric(n, theta, m) == tableau_sum


# ---------------------------------------------------------------------------
# 4. hypercube scans from arbitrary starts


def test_criterion_04_hypercube_arbitrary_starts(capsys):
    with verdict(
        capsys, 4, "hypercube closed forms equal exact evolution from any start"
    ):
        rng = random.Random(20260814)
        for n in range(1, 9):
            family = hypercube(n)
            recipe = long_recipe(family)
            for theta in (Fraction(1, 2), Fraction(9, 10)):
                engine = brute(family, theta)
                starts = {0, engine.N - 1}
                starts.update(rng.randrange(engine.N) for _ in range(10))
                assert engine.index[coxeter.longest_element(family)] == engine.N - 1
                for x in sorted(starts):
                    w = engine.elements[x]
                    for ell in (1, 2, 3):
                        vec, den = engine.scan_vector(recipe, x, ell)
                        assert spectral.long_scan_chisq(
                            family, theta, ell, start=w
                        ) == engine.chisq_vec(vec, den)
                        vec, den = engine.random_walk_vector(x, ell)
                        assert spectral.random_scan_chisq_hypercube(
                            n, theta, ell, start=w
                        ) == engine.chisq_vec(vec, den)


# ---------------------------------------------------------------------------
# 5. dihedral random scan within float tolerance


def test_criterion_05_dihedral_random_scan_float(capsys):
    with verdict(
        capsys, 5, "dihedral random-scan closed form within 1e-12 of brute force"
    ):
        for n in range(4, 9):
            family = dihedral(n)
            for theta in (Fraction(1, 4), Fraction(1, 2)):
                engine = brute(family, theta)
                one_step = sum(
                    engine.left_letter(i, engine.identity_matrix())
                    for i in coxeter.generators(family)
                )
                P = np.array(one_step, dtype=float) / (engine.td * engine.rank)
                pi = np.array([float(p) for p in engine.pi])
                Pk = np.eye(engine.N)
                for ell in range(1, 5):
                    Pk = Pk @ P
                    rows_chisq = ((Pk - pi) ** 2 / pi).sum(axis=1)
                    start = rows_chisq[engine.id_index]
                    averaged = float(pi @ rows_chisq)
                    got_start = spectral.dihedral_random_scan_chisq(n, theta, ell)
                    got_avg = spectral.dihedral_random_scan_chisq(
                        n, theta, ell, averaged=True
                    )
                    assert abs(got_start - start) <= 1e-12 * max(1.0, abs(start))
                    assert abs(got_avg - averaged) <= 1e-12 * max(1.0, abs(averaged))


# ---------------------------------------------------------------------------
# 6. trace identity and centrality of the full scan


def test_criterion_06_trace_identity_and_centrality(capsys):
    with verdict(
        capsys, 6, "averaged chi-square equals return-trace; full scan is central"
    ):
        for family in FAMILIES:
            recipe = long_recipe(family)
            for theta in THETAS:
                engine = brute(family, theta)
                for ell in (1, 2, 3):
                    num, den = engine.scan_power(recipe, ell)
                    num2, den2 = engine.scan_power(recipe, 2 * ell)
                    assert engine.averaged_chisq(num, den) == engine.trace(
                        num2, den2
                    ) - 1
                scan_num, _ = engine.scan_power(recipe, 1)
                for i in coxeter.generators(family):
                    assert (
                        engine.left_letter(i, scan_num)
                        == engine.right_letter(i, scan_num)
                    ).all()


# ---------------------------------------------------------------------------
# 7. block dimensions and generic-degree sums


def test_criterion_07_block_structure_constants(capsys):
    with verdict(
        capsys, 7, "block dimensions and degree sums match order and length polynomial"
    ):
        q_values = (Fraction(2), Fraction(1, 3), Fraction(7, 5))
        heavier = (
            [symmetric(n) for n in range(2, 9)]
            + [hypercube(n) for n in range(1, 11)]
            + [dihedral(n) for n in range(3, 13)]
        )
        for family in heavier:
            blocks = spectral.irreps(family)
            assert sum(r.d**2 for r in blocks) == family.order
            degs = coxeter.degrees(family)
            lengths = [coxeter.length(w) for w in coxeter.enumerate(family)]
            for q in q_values:
                product = Fraction(1)
                for d in degs:
                    product *= (q**d - 1) / (q - 1)
                assert spectral.sum_d_t(family, q) == product
                assert sum(q**l for l in lengths) == product
                # per-block route: exact where the degrees are rational, float
                # where a two-dimensional dihedral block carries cosines
                direct = sum(r.d * r.t_of_q(q) for r in blocks)
                if family.kind == "dihedral":
                    assert abs(direct - product) <= 1e-9 * float(product)
                else:
                    assert direct == product


# ---------------------------------------------------------------------------
# 8. sampler exactness


def test_criterion_08_sampler_exactness(capsys):
    with verdict(
        capsys, 8, "insertion sampler exactly stationary; seeded TV < 0.01"
    ):
        # symbolic expansion of the insertion algorithm on S_4
        for theta in THETAS + (Fraction(1),):
            built = oracle.insertion_distribution(4, theta)
            target = chains.stationary(symmetric(4), theta)
            assert built.probs == target.probs
        # length moments equal enumeration on every family
        for family in (symmetric(5), hypercube(8), dihedral(9)):
            for theta in THETAS:
                engine = brute(family, theta)
                mean = sum(
                    (p * l for p, l in zip(engine.pi, engine.lengths)), Fraction(0)
                )
                var = sum(
                    (p * (l - mean) ** 2 for p, l in zip(engine.pi, engine.lengths)),
                    Fraction(0),
                )
                report = sampler.length_moments(family, theta)
                assert report.mean == mean and report.variance == var
        # empirical total variation at 10^5 seeded draws
        family = symmetric(5)
        theta = Fraction(1, 2)
        engine = brute(family, theta)
        rng = sampler.random_source(4)
        counts = np.zeros(engine.N)
        draws = 100_000
        for _ in range(draws):
            counts[engine.index[sampler.mallows_sample(family, theta, rng)]] += 1
        tv = 0.5 * sum(
            abs(c / draws - float(p)) for c, p in zip(counts, engine.pi)
        )
        assert tv < 0.01


# ---------------------------------------------------------------------------
# 9. bound evaluations


def test_criterion_09_bounds_finite_monotone_dominating(capsys):
    with verdict(
        capsys, 9, "bounds finite, shrinking with slack, dominating exact values"
    ):
        cs = list(range(1, 11))
        for theta in (0.5, 0.9):
            seq = [spectral.bound_theorem_1_4(100, theta, c) for c in cs]
            assert all(map(math.isfinite, seq)) and all(
                a > b > 0 for a, b in zip(seq, seq[1:])
            )
            for scan in ("random", "systematic"):
                seq = [spectral.bound_hypercube(100, theta, c, scan) for c in cs]
                assert all(map(math.isfinite, seq)) and all(
                    a > b > 0 for a, b in zip(seq, seq[1:])
                )
            for which in ("short_start", "short_avg"):
                seq = [spectral.bound_symmetric_scans(60, theta, which, c) for c in cs]
                assert all(map(math.isfinite, seq)) and all(
                    a > b > 0 for a, b in zip(seq, seq[1:])
                )
            for which in ("long_start", "long_avg"):
                value = spectral.bound_symmetric_scans(60, theta, which)
                assert math.isfinite(value) and value > 0
            seq = [spectral.bound_dihedral_random_scan(20, theta, ell) for ell in cs]
            assert all(map(math.isfinite, seq)) and all(
                a > b > 0 for a, b in zip(seq, seq[1:])
            )
        # single dihedral pass: the advertised tail really is tiny ...
        assert spectral.bound_dihedral_long_scan(40, Fraction(1, 2)) < 1e-10
        # ... and the bound dominates the exact value wherever brute force runs
        for n in range(3, 11):
            family = dihedral(n)
            for theta in (Fraction(1, 2), Fraction(1, 3)):
                engine = brute(family, theta)
                num, den = engine.scan_power(long_recipe(family), 1)
                exact = engine.chisq_vec(num[engine.id_index], den)
                assert exact <= spectral.bound_dihedral_long_scan(n, theta)
        for n in range(4, 9):
            for ell in (1, 2, 3):
                got = spectral.dihedral_random_scan_chisq(n, Fraction(1, 2), ell)
                bound = spectral.bound_dihedral_random_scan(n, 0.5, ell)
                assert got <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# 10. lower-bound witnesses


def test_criterion_10_lower_bound_witnesses(capsys):
    with verdict(
        capsys, 10, "support confinement and separating-statistic means within 3 SE"
    ):
        # after ell short passes from the identity no state beyond 2*ell*(n-1)
        # carries mass (exact zero), and the restriction is real for n = 5
        for n in (2, 3, 4, 5):
            family = symmetric(n)
            recipe = chains.short_recipe(family)
            for theta in (Fraction(1, 2), Fraction(1, 10)):
                engine = brute(family, theta)
                for ell in (1, 2):
                    vec, _ = engine.scan_vector(recipe, engine.id_index, ell)
                    support = [l for v, l in zip(vec, engine.lengths) if v != 0]
                    assert max(support) <= 2 * ell * (n - 1)
                    if n == 5 and ell == 1:
                        assert len(support) < engine.N
        # hypercube separating statistic: simulated means within three SE
        n, theta = 50, 0.5
        _, predicted_mean, _, z = oracle.lower_bound_witness(
            n, theta, 43, "random", 20_000, sampler.random_source(4)
        )
        a = 1 - (1 + theta) / n
        assert predicted_mean == pytest.approx((n / math.sqrt(theta)) * a**43)
        assert abs(z) <= 3
        _, predicted_mean, _, z = oracle.lower_bound_witness(
            n, theta, 1, "systematic", 20_000, sampler.random_source(4)
        )
        assert predicted_mean == pytest.approx(
            (n / math.sqrt(theta)) * theta**2
        )
        assert abs(z) <= 3
