"""Regenerate ``reference.json``: expected analyze values and verified sample seeds.

    python3 perfbench/make_reference.py

For every analyze job a workload can produce, the CLI's ``chisq_formula``
column is stored: ``p/q`` strings in exact mode (compared with ``==``) and
floats in float mode (compared within ``rel_tol=1e-9``).  Exact rows must
match their oracle column before they are stored.  ``sample_seeds`` lists
seeds for which every sample job passes its checks at every theta, since a
correct sampler still lands beyond three standard errors for about one seed
in 370.  Run it only at a commit whose outputs are trusted; the values then
pin later commits to the same answers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import jobs
import run

SAMPLE_SEED_COUNT = 4


def analyze_references(workdir: Path, env: dict) -> dict[str, list]:
    analyze = {}
    for workload in jobs.WORKLOADS:
        for argv in jobs.all_instances(workload):
            if argv[0] != "analyze":
                continue
            wall, _, code, out, err = run.spawn(
                [sys.executable, "-m", "hecke_metro.cli", *argv], workdir, env
            )
            key = jobs.job_key(argv)
            rows = json.loads(out)["rows"] if code == 0 else []
            if code != 0 or any(row["match"] is False for row in rows):
                raise SystemExit(f"{key} failed: {err.decode()}")
            analyze[key] = [row["chisq_formula"] for row in rows]
            print(f"{wall:7.2f} s  {key}", flush=True)
    return analyze


def sample_seeds(workdir: Path, env: dict) -> list[int]:
    templates = [
        argv for workload in jobs.WORKLOADS for argv in jobs.all_instances(workload)
        if argv[0] == "sample"
    ]
    seeds, candidate = [], 0
    while len(seeds) < SAMPLE_SEED_COUNT:
        candidate += 1
        ok = True
        for template in templates:
            argv = [str(candidate) if a == jobs.SEED else a for a in template]
            result = run.run_job(argv, workdir, env, {})
            print(f"{result.wall_s:7.2f} s  {jobs.job_key(argv)}: {result.error or 'ok'}", flush=True)
            ok = ok and result.error is None
        if ok:
            seeds.append(candidate)
    return seeds


def main() -> int:
    env = run.child_env()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=run.BENCH_DIR) as tmp:
        workdir = Path(tmp)
        reference = {
            "analyze": analyze_references(workdir, env),
            "sample_seeds": sample_seeds(workdir, env),
        }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
