#!/usr/bin/env python3
"""Chi-square decay of the long, short, and random scans side by side.

Evolves the identity start exactly, one scan letter at a time, for every
scan the family supports and prints one row per pass count, with the
float closed-form value next to the exact one whenever a closed form
exists.  Small groups only (the point is the comparison, not scale).

Example:
    python3 scripts/scan_comparison.py --family symmetric --n 4 --theta 1/2 --lmax 6
"""

import argparse

from hecke_metro import chains, coxeter, spectral
from hecke_metro.cli import _parse_theta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--family", choices=("symmetric", "hypercube", "dihedral"), default="symmetric"
    )
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--theta", default="1/2")
    parser.add_argument("--lmax", type=int, default=6)
    args = parser.parse_args()

    try:
        theta = _parse_theta(args.theta, "exact")
        family = coxeter.GroupFamily(args.family, args.n)
        pi = chains.stationary(family, theta)
    except ValueError as exc:  # CapExceededError past the enumeration cap among them
        parser.error(str(exc))
    scans = ("long", "short", "random")
    dists = {scan: chains.point_mass(family, coxeter.identity(family)) for scan in scans}

    print(f"# {family}, theta = {theta}   (chi-square from the identity start)")
    header = f"{'l':>3}"
    for scan in scans:
        header += f"  {scan + ' (kernel)':>16}  {scan + ' (form)':>14}"
    header += f"  {'tv(long)':>12}"
    print(header)
    for ell in range(1, args.lmax + 1):
        cells = [f"{ell:>3}"]
        for scan in scans:
            dists[scan] = chains.evolve_scan(family, theta, scan, dists[scan], 1)
            chisq = chains.chi_square(dists[scan], pi)
            try:
                form = f"{spectral.closed_form(family, scan, float(theta), ell):>14.6e}"
            except ValueError:  # this scan has no closed form on this family
                form = f"{'-':>14}"
            cells.append(f"{float(chisq):>16.6e}")
            cells.append(form)
        cells.append(f"{float(chains.tv_distance(dists['long'], pi)):>12.6e}")
        print("  ".join(cells))


if __name__ == "__main__":
    main()
