"""End-to-end benchmark of the hecke-metro CLI.

    python3 perfbench/run.py --workload exact-start --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the root of a checkout; the package is imported from ``src/``.
Each job of the workload (see ``jobs.py``) runs in a fresh interpreter, one
at a time, because a user pays interpreter start and import on every call.
Each child is reaped with ``os.wait4`` so its own peak RSS is read, and its
output is checked.  Whole passes over the job list repeat while the next
one fits in ``--seconds`` (at least one pass runs).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``wall_s`` (median pass wall time), ``setup_s`` (median
of fresh ``--version`` processes) and ``peak_rss_mb`` (largest child peak
RSS).  Failed jobs count in ``failed``; ``failed_frac`` is printed above.
With ``--trace 1`` one untraced and one traced pass run (``tracer.py``) and
the line holds the per-layer metrics of ``layers.py``.

A job fails when it exits non-zero, prints a traceback or its output check
fails; ``correct`` is false only when a job that did not crash gave a wrong
answer.  The run aborts with exit 2 and no result when the checkout has no
package source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROCESSES = 5
IMPORT_PROCESSES = 3
JOB_TIMEOUT_S = 150.0
TRACEBACK = b"Traceback (most recent call last)"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class JobResult:
    argv: list[str]
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    error: str | None = None  # why the job failed; None when it passed
    crashed: bool = False  # traceback, signal or timeout rather than a wrong answer


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("HECKE_METRO_CAP", None)  # every job runs under the default cap
    return env


def spawn(cmd: list[str], workdir: Path, env: dict[str, str], timeout: float = JOB_TIMEOUT_S):
    """Run ``cmd`` to completion; return (wall s, peak RSS MB, exit code, stdout, stderr).

    The child is reaped with ``os.wait4``, whose rusage is that child's
    alone; ``getrusage(RUSAGE_CHILDREN)`` would give the running maximum
    over every child reaped so far.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def classify(result: JobResult, reference: dict) -> None:
    """Set ``error`` and ``crashed`` from the exit code, stderr and output check."""
    if result.returncode < 0 or TRACEBACK in result.stderr:
        result.crashed = True
        tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
        result.error = f"exit {result.returncode}: {' '.join(tail) or 'killed'}"
    elif result.returncode != 0:
        result.error = f"exit {result.returncode}"
    else:
        result.error = jobs.check_output(result.argv, result.stdout, reference)


def run_job(argv, workdir, env, reference, trace_to: Path | None = None, job_id: int = 0):
    if trace_to is None:
        cmd = [sys.executable, "-m", "hecke_metro.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_to), str(job_id), *argv]
    result = JobResult(argv, *spawn(cmd, workdir, env))
    classify(result, reference)
    return result


def run_pass(job_list, workdir, env, reference, traced=False):
    results, records = [], []
    for job_id, argv in enumerate(job_list):
        trace_to = workdir / f"trace-{job_id}.json" if traced else None
        result = run_job(argv, workdir, env, reference, trace_to, job_id)
        results.append(result)
        if traced and trace_to.exists():
            records.append(json.loads(trace_to.read_text()))
            trace_to.unlink()
        if result.error:
            print(f"FAILED {jobs.job_key(argv)}: {result.error}", file=sys.stderr)
    return results, records


def measure_setup(workdir, env) -> float:
    """Median wall time of fresh ``hecke-metro --version`` processes."""
    cmd = [sys.executable, "-m", "hecke_metro.cli", "--version"]
    times = []
    for _ in range(SETUP_PROCESSES):
        wall, _, code, out, err = spawn(cmd, workdir, env)
        if code != 0 or b"version" not in out:
            raise SystemExit(f"hecke-metro --version failed (exit {code}): {err.decode()}")
        times.append(wall)
    return statistics.median(times)  # also drops a first start that compiles bytecode


def measure_imports(workdir, env) -> tuple[float, float]:
    """Median in-process import time of hecke_metro.cli, and sympy's share of it.

    The sympy figure is the cumulative ``sympy`` entry of ``-X importtime``.
    """
    timed = "import time; t = time.perf_counter(); import hecke_metro.cli; print(time.perf_counter() - t)"
    imports, sympy = [], []
    for _ in range(IMPORT_PROCESSES):
        _, _, _, out, _ = spawn([sys.executable, "-c", timed], workdir, env)
        imports.append(float(out))
        _, _, _, _, err = spawn(
            [sys.executable, "-X", "importtime", "-c", "import hecke_metro.cli"], workdir, env
        )
        cumulative = 0
        for line in err.decode().splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "sympy":
                cumulative = int(fields[1])
        sympy.append(cumulative / 1e6)
    return statistics.median(imports), statistics.median(sympy)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())
    job_list = jobs.instantiate(workload, seed, reference["sample_seeds"])
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        if trace:
            untraced, _ = run_pass(job_list, workdir, env, reference)
            traced, records = run_pass(job_list, workdir, env, reference, traced=True)
            import_s, sympy_s = measure_imports(workdir, env)
            passes = [untraced, traced]
        else:
            setup_s = measure_setup(workdir, env)
            passes, start = [], time.perf_counter()
            while not passes or time.perf_counter() - start + pass_s <= seconds:
                results, _ = run_pass(job_list, workdir, env, reference)
                passes.append(results)
                pass_s = sum(r.wall_s for r in results)

    done = [r for results in passes for r in results]
    if trace:
        metrics = layers.layer_metrics(records, sum(len(r.stdout) for r in traced))
        metrics["setup.import_s"] = import_s
        metrics["setup.sympy_import_s"] = sympy_s
        metrics["trace.overhead_frac"] = (
            sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1
        )
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {
            "wall_s": statistics.median(sum(r.wall_s for r in results) for results in passes),
            "setup_s": setup_s,
            "peak_rss_mb": max(r.peak_rss_mb for r in done),
        }
        units = dict(END_TO_END)
    failed = sum(r.error is not None for r in done)
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "jobs": len(job_list),
        "failed_frac": failed / len(done),
        "job_s": [  # median over the untraced passes
            statistics.median(r[k].wall_s for r in (passes[:1] if trace else passes))
            for k in range(len(job_list))
        ],
        "job_list": job_list,
        "result": {
            "correct": not any(r.error and not r.crashed for r in done),
            "attempted": len(done),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def report(summary: dict) -> None:
    result = summary["result"]
    print(
        f"workload {summary['workload']}  seed {summary['seed']}  "
        f"passes {summary['passes']}  jobs/pass {summary['jobs']}"
    )
    for wall, argv in zip(summary["job_s"], summary["job_list"]):
        print(f"  {wall:8.3f} s  {jobs.job_key(argv)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"  {'failed_frac':40s} {summary['failed_frac']:14.6g} fraction "
        f"({result['failed']}/{result['attempted']} jobs)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*jobs.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hecke_metro" / "cli.py").is_file():
        print(f"no package source under {SRC}; run from a hecke-metro checkout", file=sys.stderr)
        return 2
    names = list(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(summary)
        results[name] = summary["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
