#!/usr/bin/env python3
"""Simulation witness for the hypercube lower bound, plus the symmetric
support witness.

Simulates N hypercube walks for ell passes of the random or systematic
scan and compares the empirical mean/variance of the separating test
statistic with the closed-form predictions; a |z| below ~3 says the
simulation and the formulas agree.  Then prints the deterministic
support argument for the symmetric group: after ell short-scan passes
the walk cannot have produced more inversions than the scan has offered
transpositions.

Example:
    python3 scripts/witness_demo.py --n 50 --theta 1/2 --samples 20000
"""

import argparse
import math

from hecke_metro import sampler
from hecke_metro.cli import _parse_theta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--theta", default="1/2")
    parser.add_argument("--samples", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--c", type=float, default=-2.0, help="slack in the pass count")
    args = parser.parse_args()
    try:
        label, theta = _parse_theta(args.theta, "exact"), _parse_theta(args.theta, "float")
        if theta == 1:
            raise ValueError("the systematic scan needs theta < 1 (log theta divides)")
        _print_witnesses(args, label, theta)
    except ValueError as exc:
        parser.error(str(exc))


def _print_witnesses(args: argparse.Namespace, label, theta: float) -> None:
    n = args.n
    ell_random = round(n * (math.log(n) - math.log(theta) + args.c) / (2 * (1 + theta)))
    ell_sys = round(((math.log(n) + args.c) / math.log(1 / theta) + 1) / 4)
    for scan, ell in (("random", max(ell_random, 1)), ("systematic", max(ell_sys, 1))):
        rng = sampler.random_source(args.seed)
        rep = sampler.lower_bound_witness(n, theta, ell, scan, args.samples, rng)
        print(f"# hypercube n={n}, theta={label}, {scan} scan, ell={ell}")
        print(f"  empirical mean  {rep.empirical_mean:>12.5f}   predicted {rep.predicted_mean:>12.5f}")
        print(f"  empirical var   {rep.empirical_variance:>12.5f}   predicted {rep.predicted_variance:>12.5f}")
        print(f"  z-score for the mean: {rep.z_score:+.3f}  (SE {rep.standard_error:.5f})")
        print()

    print(f"# symmetric support witness, theta={label}")
    print(f"{'n':>4} {'ell':>4} {'reachable':>10} {'mean len':>10} {'tv lower bound':>15}")
    for n_sym, ell in ((10, 1), (20, 2), (30, 3)):
        w = sampler.symmetric_support_witness(n_sym, theta, ell)
        print(
            f"{n_sym:>4} {ell:>4} {w.max_support_length:>10} "
            f"{w.mean_length:>10.2f} {w.tv_lower_bound:>15.6f}"
        )


if __name__ == "__main__":
    main()
