#!/usr/bin/env python3
"""Print the mixing-time lead-constant table and a tail-bound grid.

First block: for each theta, the leading term of the hypercube mixing
time evaluated at the requested n — n log(n/theta) / (2(1+theta)) for
the random scan, n log n / (2 log(1/theta)) for the systematic scan.

Second block: the symmetric-group short-scan tail bound as a function of
the slack constant c, at l = n/2 - log n/log theta + c passes.

Example:
    python3 scripts/bounds_table.py --n 100 --theta 1/2 --theta 9/10 --theta 1/10
"""

import argparse

from hecke_metro import spectral
from hecke_metro.cli import _parse_theta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument(
        "--theta", action="append", help="repeatable; defaults to 1/2, 9/10, 1/10"
    )
    parser.add_argument("--cmax", type=int, default=8)
    args = parser.parse_args()
    try:
        thetas = [_parse_theta(raw, "float") for raw in args.theta or ["1/2", "9/10", "1/10"]]
        _print_tables(args.n, thetas, args.cmax)
    except ValueError as exc:
        parser.error(str(exc))


def _print_tables(n: int, thetas: list[float], cmax: int) -> None:
    lead = spectral.lead_constant_table(thetas, n)
    print(f"# hypercube lead constants at n = {n}")
    print(f"{'theta':>8}  {'random scan':>14}  {'systematic':>14}")
    for row in lead:
        print(f"{row.theta:>8.4g}  {row.random_scan:>14.4f}  {row.systematic_scan:>14.4f}")

    print()
    print(f"# symmetric short-scan tail bounds at n = {n} (start = identity / averaged)")
    print(f"{'theta':>8}  {'c':>3}  {'start bound':>14}  {'avg bound':>14}")
    for theta in thetas:
        for c in range(1, cmax + 1):
            start = spectral.bound_symmetric_scans(n, theta, "short_start", c)
            avg = spectral.bound_symmetric_scans(n, theta, "short_avg", c)
            print(f"{theta:>8.4g}  {c:>3}  {start:>14.6e}  {avg:>14.6e}")

    print()
    print(f"# hypercube tail bounds at n = {n}")
    print(f"{'theta':>8}  {'c':>3}  {'random scan':>14}  {'systematic':>14}")
    for theta in thetas:
        for c in range(1, cmax + 1):
            rnd = spectral.bound_hypercube(n, theta, c, "random")
            sys_ = spectral.bound_hypercube(n, theta, c, "systematic")
            print(f"{theta:>8.4g}  {c:>3}  {rnd:>14.6e}  {sys_:>14.6e}")


if __name__ == "__main__":
    main()
