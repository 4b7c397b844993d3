"""Workloads of the hecke-metro benchmark and the checks on each job's output.

A workload is a fixed list of CLI jobs.  The workload seed picks each job's
``--theta`` from the workload's ``THETAS`` and each ``sample`` job's
``--seed`` from the seeds stored in ``reference.json``; nothing else
varies.  Every job must exit 0 with no traceback and pass the check for its
subcommand.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

# Per workload, the thetas a seed picks from.  The exact workloads use one
# denominator, so their jobs cost about the same whichever theta is picked:
# a denominator of 3 makes the exact dihedral oracle of exact-start 2.5
# times slower than a power of two, and 1/2 makes exact jobs about 20%
# cheaper than 1/4 or 3/4.  The float jobs of beyond-cap leave the float
# range below theta = 1/2 at the commit that introduced the benchmark
# (symmetric(30) long scan gives NaN, hypercube(1000) random scan raises
# OverflowError), so beyond-cap keeps to thetas where they give answers.
THETAS = {
    "exact-start": ("1/4", "3/4"),
    "exact-operator": ("1/4", "3/4"),
    "beyond-cap": ("1/2", "3/4"),
}

THETA = "{theta}"
SEED = "{seed}"

# Why each workload exists, and which layers it loads, is set out in
# BENCHMARK.json.  Job sizes keep one pass of each list near 30 s on two
# cores at the commit that introduced the benchmark, so that a full set of
# repeated runs of all three workloads stays under an hour.
WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    "exact-start": [
        ("analyze", "--family", "symmetric", "--n", "6", "--scan", "long",
         "--theta", THETA, "--lmax", "3"),
        ("analyze", "--family", "symmetric", "--n", "6", "--scan", "short",
         "--theta", THETA, "--lmax", "3"),
        ("analyze", "--family", "hypercube", "--n", "9", "--scan", "long",
         "--theta", THETA, "--lmax", "3"),
        ("analyze", "--family", "dihedral", "--n", "200", "--scan", "random",
         "--mode", "float", "--theta", THETA, "--lmax", "10"),
    ],
    "exact-operator": [
        ("analyze", "--family", "symmetric", "--n", "6", "--scan", "short",
         "--averaged", "--theta", THETA, "--lmax", "1"),
        ("analyze", "--family", "hypercube", "--n", "8", "--scan", "long",
         "--averaged", "--theta", THETA, "--lmax", "2"),
        ("verify", "--family", "symmetric", "--n", "5", "--theta", THETA),
        ("verify", "--family", "hypercube", "--n", "7", "--theta", THETA),
        ("verify", "--family", "dihedral", "--n", "60", "--theta", THETA),
    ],
    "beyond-cap": [
        ("analyze", "--family", "symmetric", "--n", "30", "--scan", "long",
         "--mode", "float", "--theta", THETA, "--lmax", "5"),
        ("analyze", "--family", "symmetric", "--n", "12", "--scan", "short",
         "--mode", "float", "--theta", THETA, "--lmax", "3"),
        ("analyze", "--family", "hypercube", "--n", "1000", "--scan", "random",
         "--mode", "float", "--theta", THETA, "--lmax", "40"),
        # n=1000 with theta=1/10 overflows in bound_dihedral_random_scan at
        # the commit that introduced the benchmark; the job stays as written
        # so that the failure shows until it is fixed.
        ("bounds", "--n", "100", "--n", "1000",
         "--theta", "1/2", "--theta", "9/10", "--theta", "1/10"),
        ("sample", "--family", "symmetric", "--n", "100", "--theta", THETA,
         "-N", "10000", "--seed", SEED),
        ("sample", "--family", "hypercube", "--n", "100", "--theta", THETA,
         "-N", "10000", "--seed", SEED),
    ],
}

# Rows per (n, theta) of the bounds grid with the default ten slack
# constants: five per c, two long-scan rows, one single-pass row and two
# lead-constant rows.
BOUNDS_ROWS_PER_CELL = 5 * 10 + 2 + 1 + 2


def instantiate(workload: str, seed: int, sample_seeds: list[int]) -> list[list[str]]:
    """The workload's job list for ``seed``, as argv lists for the CLI."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for template in WORKLOADS[workload]:
        theta = rng.choice(THETAS[workload])
        sample_seed = str(rng.choice(sample_seeds))
        jobs.append(
            [theta if a == THETA else sample_seed if a == SEED else a for a in template]
        )
    return jobs


def all_instances(workload: str) -> list[list[str]]:
    """Every argv the workload can produce for a theta: what the reference covers."""
    return [
        [theta if a == THETA else a for a in template]
        for template in WORKLOADS[workload]
        for theta in (THETAS[workload] if THETA in template else THETAS[workload][:1])
    ]


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _options(argv: list[str], name: str) -> list[str]:
    return [argv[k + 1] for k, a in enumerate(argv) if a == name]


def check_output(argv: list[str], stdout: bytes, reference: dict) -> str | None:
    """Return why the job's output is wrong, or None when it is right."""
    try:
        return _CHECKS[argv[0]](argv, stdout.decode(), reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_analyze(argv, text, reference):
    rows = json.loads(text)["rows"]
    expected = reference["analyze"][job_key(argv)]
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    exact = "--mode" not in argv or _option(argv, "--mode") == "exact"
    for row, want in zip(rows, expected):
        if exact:
            if row["match"] is not True:
                return f"l={row['l']}: match is {row['match']}"
            if Fraction(row["chisq_formula"]) != Fraction(want):
                return f"l={row['l']}: chisq_formula {row['chisq_formula']} != {want}"
        else:
            if row["match"] is False:
                return f"l={row['l']}: formula and oracle disagree"
            if not math.isclose(row["chisq_formula"], want, rel_tol=1e-9):
                return f"l={row['l']}: chisq_formula {row['chisq_formula']} vs {want}"
    return None


def _check_verify(argv, text, reference):
    last = text.strip().splitlines()[-1]
    return None if last == "8/8 checks passed" else f"verify says {last!r}"


def _check_sample(argv, text, reference):
    payload = json.loads(text)
    z = payload["summary"]["mean_z_score"]
    if not abs(z) <= 3:
        return f"mean_z_score {z}"
    rows = payload["rows"]
    num = int(_option(argv, "-N"))
    if len(rows) != num:
        return f"{len(rows)} rows, expected {num}"
    n = int(_option(argv, "--n"))
    family = _option(argv, "--family")
    if family == "symmetric":
        valid = list(range(1, n + 1))
        bad = next((r for r in rows if sorted(r) != valid), None)
    else:
        bad = next((r for r in rows if len(r) != n or not set(r) <= {0, 1}), None)
    return None if bad is None else f"invalid {family} element {bad}"


def _check_bounds(argv, text, reference):
    rows = list(csv.DictReader(io.StringIO(text)))
    cells = len(_options(argv, "--n")) * len(_options(argv, "--theta"))
    if len(rows) != cells * BOUNDS_ROWS_PER_CELL:
        return f"{len(rows)} rows, expected {cells * BOUNDS_ROWS_PER_CELL}"
    for row in rows:
        float(row["value"])  # ValueError is reported as unreadable output
    return None


_CHECKS = {
    "analyze": _check_analyze,
    "verify": _check_verify,
    "sample": _check_sample,
    "bounds": _check_bounds,
}
