"""Tests of the benchmark harness itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def test_self_time_subtracts_child_spans():
    spans = [
        ["chains.scan_kernel", 0.0, 10.0, -1],
        ["coxeter.enumerate", 1.0, 3.0, 0],
        ["chains.stationary", 1.5, 2.5, 1],  # called back from coxeter
        ["coxeter.length", 4.0, 5.0, 0],
        ["spectral.irreps", 11.0, 12.0, -1],
    ]
    selfs = layers.self_times(spans)
    assert selfs["chains"] == pytest.approx((10 - 3) + 1)
    assert selfs["coxeter"] == pytest.approx((2 - 1) + 1)
    assert selfs["spectral"] == pytest.approx(1)
    record = {"main": [-1.0, 13.0], "spans": spans}
    assert layers.cli_self_time(record) == pytest.approx(14 - 10 - 1)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [["hecke.product", 0.0, 4.0, -1], ["coxeter.a", 1.0, 3.0, 0], ["coxeter.b", 2.0, 3.5, 0]]
    assert layers.self_times(spans)["hecke"] == pytest.approx(4 - 2.5)


def test_child_exiting_with_traceback_is_a_failure(tmp_path):
    cmd = [sys.executable, "-c", "raise RuntimeError('boom')"]
    argv = ["bounds", "--n", "3", "--theta", "1/2"]
    result = run.JobResult(argv, *run.spawn(cmd, tmp_path, run.child_env()))
    run.classify(result, {})
    assert result.returncode == 1
    assert result.crashed
    assert "RuntimeError: boom" in result.error


def test_wrong_answer_is_a_failure_but_not_a_crash(tmp_path):
    cmd = [sys.executable, "-c", "print('7/8 checks passed')"]
    result = run.JobResult(["verify"], *run.spawn(cmd, tmp_path, run.child_env()))
    run.classify(result, {})
    assert result.returncode == 0
    assert not result.crashed
    assert "7/8" in result.error


def test_peak_rss_is_per_child_not_the_running_maximum(tmp_path):
    env = run.child_env()
    big = run.spawn([sys.executable, "-c", "x = 'x' * (96 << 20)"], tmp_path, env)
    small = run.spawn([sys.executable, "-c", "pass"], tmp_path, env)
    running_max = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert big[1] >= 96
    assert small[1] < 64
    assert running_max >= 96  # what RUSAGE_CHILDREN would have reported for the small child


def test_tracer_spans_calls_made_through_imported_names(tmp_path):
    out = tmp_path / "trace.json"
    argv = ["sample", "--family", "dihedral", "--n", "5", "--theta", "1/2", "-N", "5"]
    cmd = [sys.executable, str(run.BENCH_DIR / "tracer.py"), str(out), "3", *argv]
    wall, _, code, stdout, stderr = run.spawn(cmd, tmp_path, run.child_env())
    assert code == 0, stderr.decode()
    record = json.loads(out.read_text())
    assert record["job"] == 3
    names = [span[0] for span in record["spans"]]
    # sampler imports stationary by name; the call still crosses into chains
    stationary = names.index("chains.stationary")
    parent = record["spans"][stationary][3]
    assert record["spans"][parent][0] == "sampler.mallows_sample"
    assert record["calls"]["sampler.mallows_sample"] == 5
    metrics = layers.layer_metrics([record], len(stdout))
    assert metrics["sampler.draws_per_s"] > 0
    assert metrics["cli.output_bytes"] == len(stdout)


def test_letters_useful_frac_counts_rebuilt_prefixes(tmp_path):
    out = tmp_path / "trace.json"
    argv = ["analyze", "--family", "dihedral", "--n", "3", "--theta", "1/2",
            "--averaged", "--lmax", "3"]
    cmd = [sys.executable, str(run.BENCH_DIR / "tracer.py"), str(out), "0", *argv]
    assert run.spawn(cmd, tmp_path, run.child_env())[2] == 0
    counts = json.loads(out.read_text())["counts"]
    letters = len((1, 2) * 3)  # dihedral(3) long recipe
    # K, then K^1, K^2, K^3 rebuilt from scratch; an incremental build needs K^3 only
    assert counts["chains.letters_applied"] == letters * (1 + 1 + 2 + 3)
    assert counts["chains.letters_useful"] == letters * 3


def test_bounds_check_counts_rows():
    argv = ["bounds", "--n", "10", "--theta", "1/2"]
    header = "family,kind,n,theta,c,value\n"
    row = "symmetric,long_scan_start,10,0.5,1,21.8\n"
    assert jobs.check_output(argv, (header + row * 55).encode(), {}) is None
    assert "54 rows" in jobs.check_output(argv, (header + row * 54).encode(), {})


def test_seed_fixes_the_job_list():
    first = jobs.instantiate("beyond-cap", 7, [1, 2])
    assert first == jobs.instantiate("beyond-cap", 7, [1, 2])
    assert all(arg not in (jobs.THETA, jobs.SEED) for argv in first for arg in argv)
