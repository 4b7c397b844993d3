"""End-to-end tests of the command-line interface, run in process."""

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from hecke_metro import chains, cli, coxeter, hecke, sampler, spectral
from hecke_metro.coxeter import dihedral, hypercube, symmetric

ANALYZE_COLUMNS = ["l", "chisq_formula", "chisq_oracle", "tv", "tv_bound", "match"]


@dataclasses.dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: Exception | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class Runner:
    """Runs ``main`` with stdout and stderr captured and ``env`` added to the
    environment.  An exception is re-raised, or with ``catch_exceptions``
    kept in ``exception`` as exit code 1."""

    def invoke(self, main, args, env=None, catch_exceptions=True) -> Result:
        stdout, stderr, exception = io.StringIO(), io.StringIO(), None
        with (
            mock.patch.dict(os.environ, env or {}),
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
        ):
            try:
                code = main(args, standalone_mode=False)
            except Exception as exc:
                if not catch_exceptions:
                    raise
                code, exception = 1, exc
        return Result(code, stdout.getvalue(), stderr.getvalue(), exception)


@pytest.fixture()
def runner():
    return Runner()


def invoke(runner, *args, env=None):
    return runner.invoke(cli.main, list(args), env=env, catch_exceptions=False)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_exact_json_roundtrip(runner):
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "4", "--theta", "1/2",
        "--lmax", "3",
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert set(payload) == {"config", "rows", "provenance"}
    assert payload["config"]["family"] == "symmetric"
    assert payload["config"]["theta"] == "1/2"
    assert payload["config"]["mode"] == "exact"
    assert [row["l"] for row in payload["rows"]] == [1, 2, 3]
    for row in payload["rows"]:
        assert list(row) == ANALYZE_COLUMNS
        assert row["match"] is True
        # exact mode serializes rationals as p/q strings
        assert "/" in row["chisq_formula"]
        assert row["chisq_formula"] == row["chisq_oracle"]
        num, den = map(int, row["tv"].split("/"))
        assert 0 <= Fraction(num, den) <= 1
    assert set(payload["provenance"]) == {"tool", "version", "description"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exact_values_past_the_int_digit_limit_are_printed(runner, fmt):
    # theta = 10^-5000 makes the chi-square a rational of more than 4300
    # digits, past the interpreter's default int-to-str limit
    res = invoke(
        runner,
        "analyze", "--family", "hypercube", "--n", "1", "--theta", "1e-5000",
        "--lmax", "1", "--format", fmt,
    )
    assert res.exit_code == 0
    assert len(res.output) > 2 * 5000
    if fmt == "json":
        row = json.loads(res.output)["rows"][0]
        assert row["match"] is True
        assert row["chisq_formula"] == row["chisq_oracle"]


def test_analyze_dihedral_averaged_frozen_value(runner):
    res = invoke(
        runner,
        "analyze", "--family", "dihedral", "--n", "6", "--theta", "1/3",
        "--averaged", "--lmax", "1",
    )
    assert res.exit_code == 0
    row = json.loads(res.output)["rows"][0]
    # theta^(4n) + (2n - 2) theta^(2n) at n = 6, theta = 1/3
    assert row["chisq_formula"] == "5314411/282429536481"
    assert row["chisq_oracle"] == "5314411/282429536481"
    assert row["tv"] is None  # no single start in averaged mode
    assert row["tv_bound"] == "5314411/1129718145924"


def test_analyze_csv_format_and_parity_plateau(runner):
    # theta = 1 keeps the walk periodic: chi-square tends to 1, tv to 1/2
    res = invoke(
        runner,
        "analyze", "--family", "hypercube", "--n", "3", "--theta", "1",
        "--scan", "random", "--lmax", "5", "--format", "csv",
    )
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "l,chisq_formula,chisq_oracle,tv,tv_bound,match",
        "1,5/3,5/3,5/8,5/12,true",
        "2,29/27,29/27,1/2,29/108,true",
        "3,245/243,245/243,1/2,245/972,true",
        "4,2189/2187,2189/2187,1/2,2189/8748,true",
        "5,19685/19683,19685/19683,1/2,19685/78732,true",
    ]


def test_analyze_float_mode_beyond_the_cap_skips_the_oracle(runner):
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "9", "--theta", "0.5",
        "--lmax", "2", "--mode", "float",
    )
    assert res.exit_code == 0
    for row in json.loads(res.output)["rows"]:
        assert isinstance(row["chisq_formula"], float)
        assert row["chisq_oracle"] is None
        assert row["tv"] is None
        assert row["match"] is None


@pytest.mark.parametrize("averaged", [[], ["--averaged"]], ids=["start", "averaged"])
def test_analyze_float_short_scan_past_the_old_tableau_cap(runner, averaged):
    # S_20 has shapes with millions of standard tableaux; the corner sum
    # enumerates none
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "20", "--scan", "short",
        "--theta", "1/2", "--lmax", "3", "--mode", "float", *averaged,
    )
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert len(rows) == 3
    for row in rows:
        assert math.isfinite(row["chisq_formula"]) and row["chisq_formula"] > 0
        assert row["chisq_oracle"] is None


def test_analyze_exact_mode_beyond_the_cap_is_refused(runner):
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "9", "--theta", "1/2",
        "--lmax", "1",
    )
    assert res.exit_code == 2
    assert "cap" in res.output.lower()


# the largest n of each family within the default cap of 50000
LARGEST_WITHIN_CAP = {"symmetric": 8, "hypercube": 15, "dihedral": 25000}


@pytest.fixture()
def order_spy(monkeypatch):
    """``GroupFamily.order`` raises on a group past the default cap, so a
    run that forms |W| there fails."""
    order = coxeter.GroupFamily.order

    def spy(family):
        if family.n > LARGEST_WITHIN_CAP[family.kind]:
            raise AssertionError(f"|{family}| formed past the cap")
        return order.fget(family)

    monkeypatch.setattr(coxeter.GroupFamily, "order", property(spy))


@pytest.mark.parametrize(
    "args, family",
    [
        (("analyze", "--family", "symmetric", "--n", "1000000", "--lmax", "1"),
         "|symmetric(1000000)| >= 9! = 362880"),
        (("analyze", "--family", "hypercube", "--n", "1000000000", "--lmax", "1"),
         "|hypercube(1000000000)| >= 2^16 = 65536"),
        (("verify", "--family", "symmetric", "--n", "100000"),
         "|symmetric(100000)| >= 9! = 362880"),
    ],
    ids=["analyze-symmetric", "analyze-hypercube", "verify"],
)
def test_exact_runs_past_the_cap_are_refused_without_forming_the_order(
    runner, order_spy, args, family
):
    res = invoke(runner, *args, "--theta", "1/2")
    assert res.exit_code == 2
    assert family in res.output
    assert "exceeds the enumeration cap 50000" in res.output
    if args[0] == "analyze":
        assert "--mode float" in res.output


def test_float_analyze_past_the_cap_leaves_the_oracle_without_forming_the_order(
    runner, order_spy
):
    res = invoke(
        runner,
        "analyze", "--family", "hypercube", "--n", "1000000000", "--theta", "1/2",
        "--lmax", "1", "--mode", "float",
    )
    assert res.exit_code == 0
    (row,) = json.loads(res.output)["rows"]
    assert row["chisq_oracle"] is None and row["tv"] is None and row["match"] is None


def test_exact_refusal_comes_before_the_closed_form(runner, order_spy, monkeypatch):
    # the exact long form of S_41 takes seconds; the oracle's gate refuses first
    def no_form(*args, **kwargs):
        raise AssertionError("closed form computed before the cap was checked")

    monkeypatch.setattr(spectral, "closed_form", no_form)
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "41", "--theta", "1/2", "--lmax", "1",
    )
    assert res.exit_code == 2
    assert "|symmetric(41)| >= 9! = 362880" in res.output


@pytest.mark.parametrize(
    "n, bound", [("42", "p(42) = 53174"), ("80", "p(80) >= p(42) = 53174"),
                 ("1000000", "p(1000000) >= p(42) = 53174")],
)
def test_float_symmetric_analyze_past_the_partition_cap_is_refused(runner, n, bound):
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", n, "--mode", "float",
        "--theta", "1/2", "--lmax", "1",
    )
    assert res.exit_code == 2
    assert bound in res.output
    assert "cap 50000" in res.output


@pytest.mark.parametrize("scan", ["long", "short"])
def test_float_symmetric_analyze_at_a_trillion_is_refused(runner, scan):
    # the longest length n(n-1)/2 is read in closed form, not summed over
    # the n - 1 degrees, so nothing of size n is built before the gate
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "1000000000000", "--scan", scan,
        "--mode", "float", "--theta", "1/2", "--lmax", "1",
    )
    assert res.exit_code == 2
    assert "p(1000000000000) >= p(42) = 53174" in res.output


def test_analyze_cap_is_configurable_through_the_environment(runner):
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "4", "--theta", "1/2",
        "--lmax", "1",
        env={"HECKE_METRO_CAP": "10"},
    )
    assert res.exit_code == 2


# the (family, scan, start) cells without a closed form, in the modes that
# have none (the dihedral random-scan form is irrational, so float mode
# has one), within the cap and the cell budget...
NO_FORM_CELLS = [
    (family, scan, averaged, mode)
    for family, scan, averaged, modes in [
        (symmetric(4), "random", [], ["exact", "float"]),
        (dihedral(5), "short", [], ["exact", "float"]),
        (dihedral(5), "random", [], ["exact"]),
        (hypercube(4), "random", ["--averaged"], ["exact", "float"]),
    ]
    for mode in modes
]


@pytest.mark.parametrize(
    "family, scan, averaged, mode", NO_FORM_CELLS,
    ids=[f"{family}-{scan}{''.join(averaged)}-{mode}" for family, scan, averaged, mode
         in NO_FORM_CELLS],
)
def test_analyze_prints_the_oracle_alone_where_no_closed_form_exists(
    runner, family, scan, averaged, mode
):
    res = invoke(
        runner,
        "analyze", "--family", family.kind, "--n", str(family.n), "--theta", "1/2",
        "--scan", scan, "--mode", mode, "--lmax", "3", *averaged,
    )
    assert res.exit_code == 0, res.output
    theta = Fraction(1, 2)
    if averaged:
        want = [(chisq, None) for _, chisq in chains.power_sums(family, theta, scan, 3)]
    else:
        pi = chains.stationary(family, theta)
        dist, want = chains.point_mass(family, coxeter.identity(family)), []
        for _ in range(3):
            dist = chains.evolve_scan(family, theta, scan, dist, 1)
            want.append((chains.chi_square(dist, pi), chains.tv_distance(dist, pi)))
    printed = {"exact": lambda x: f"{x.numerator}/{x.denominator}", "float": float}[mode]
    for row, (chisq, tv) in zip(json.loads(res.output)["rows"], want, strict=True):
        assert row["chisq_formula"] is row["tv_bound"] is row["match"] is None
        assert row["chisq_oracle"] == printed(chisq)
        assert row["tv"] == (None if tv is None else printed(tv))


# ... and the same cells past the cap or the cell budget, where neither
# column can run
@pytest.mark.parametrize(
    "args",
    [
        # no closed random-scan form for the symmetric family
        ("analyze", "--family", "symmetric", "--n", "9", "--theta", "1/2",
         "--scan", "random", "--lmax", "1", "--mode", "float"),
        # no closed short-scan form for the dihedral family
        ("analyze", "--family", "dihedral", "--n", "25001", "--theta", "1/2",
         "--scan", "short", "--lmax", "1", "--mode", "float"),
        # the dihedral random-scan form is irrational: exact mode has only
        # the oracle, and refuses the group past the cap
        ("analyze", "--family", "dihedral", "--n", "25001", "--theta", "1/2",
         "--scan", "random", "--lmax", "1"),
        # averaged random-scan starts are not implemented anywhere
        ("analyze", "--family", "hypercube", "--n", "11", "--theta", "1/2",
         "--scan", "random", "--averaged", "--lmax", "1", "--mode", "float"),
        # the cells of args0, args1 and args3 in exact mode
        ("analyze", "--family", "symmetric", "--n", "9", "--theta", "1/2",
         "--scan", "random", "--lmax", "1"),
        ("analyze", "--family", "dihedral", "--n", "25001", "--theta", "1/2",
         "--scan", "short", "--lmax", "1"),
        ("analyze", "--family", "hypercube", "--n", "11", "--theta", "1/2",
         "--scan", "random", "--averaged", "--lmax", "1"),
    ],
)
def test_analyze_refuses_scans_without_closed_forms(runner, args):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    if "--mode" in args:
        message = "no averaged closed form" if "--averaged" in args else "no closed form for the"
    else:  # the oracle's gate: the cell budget with --averaged, else the cap
        message = "over the budget of" if "--averaged" in args else "exceeds the enumeration cap 50000"
    assert message in res.stderr
    if "--mode" not in args:
        # an exact refusal advises float mode only where that rerun has a form
        rerun = invoke(runner, *args, "--mode", "float")
        assert ("--mode float" in res.stderr) is (rerun.exit_code == 0)


SYMMETRIC_3 = ("--family", "symmetric", "--n", "3")


@pytest.mark.parametrize(
    ("theta", "mode", "group"),
    [pytest.param(theta, "exact", SYMMETRIC_3, id=theta)
     for theta in ["0", "3/2", "-1/2", "0.0", "2"]]
    + [
        # 1e-400 is a positive rational but underflows to 0.0 as a float:
        # beyond the cap only the closed form runs ...
        pytest.param("1e-400", "float", ("--family", "symmetric", "--n", "30"),
                     id="1e-400-float-beyond-cap"),
        # ... within it the oracle in chains runs too
        pytest.param("1e-400", "float",
                     ("--family", "dihedral", "--n", "8", "--scan", "random"),
                     id="1e-400-float-within-cap"),
    ],
)
def test_analyze_rejects_theta_outside_the_window(runner, theta, mode, group):
    res = invoke(
        runner,
        "analyze", *group, "--theta", theta, "--mode", mode, "--lmax", "1",
    )
    assert res.exit_code == 2
    assert "Traceback" not in res.output


def test_float_dihedral_random_scan_past_an_overflowing_prefactor(runner):
    # theta^(1 - n) = 2^1024 overflows; at l = 900 the value is finite and the
    # exact oracle on dihedral(1025) agrees, at l = 1 both are past the range
    rows = {}
    for ell in ("1", "900"):
        res = invoke(
            runner,
            "analyze", "--family", "dihedral", "--n", "1025", "--theta", "1/2",
            "--scan", "random", "--lmin", ell, "--lmax", ell, "--mode", "float",
            "--format", "csv",
        )
        assert res.exit_code == 0
        rows[ell] = dict(zip(ANALYZE_COLUMNS, res.output.splitlines()[1].split(",")))
    assert 1e270 < float(rows["900"]["chisq_formula"]) < math.inf
    assert rows["900"]["match"] == rows["1"]["match"] == "true"
    assert float(rows["1"]["chisq_formula"]) == float(rows["1"]["chisq_oracle"]) == math.inf


def test_analyze_rejects_inverted_pass_range(runner):
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "3", "--theta", "1/2",
        "--lmin", "4", "--lmax", "2",
    )
    assert res.exit_code == 2


def test_analyze_lmin_offsets_the_report(runner):
    full = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "3", "--theta", "1/2",
        "--lmax", "4",
    )
    tail = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "3", "--theta", "1/2",
        "--lmin", "3", "--lmax", "4",
    )
    assert json.loads(full.output)["rows"][2:] == json.loads(tail.output)["rows"]


def test_analyze_atomic_write_leaves_no_temp_files(runner, tmp_path):
    out = tmp_path / "report.json"
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "4", "--theta", "1/2",
        "--lmax", "2", "--out", str(out),
    )
    assert res.exit_code == 0
    assert res.output == ""
    assert json.loads(out.read_text())["rows"][0]["match"] is True
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def _refuse_dense_kernels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense scan kernel was built")

    monkeypatch.setattr(chains, "scan_kernel", refuse)


@pytest.mark.parametrize(
    "args",
    [
        ("--family", "symmetric", "--n", "5", "--scan", "long", "--theta", "1/3"),
        ("--family", "symmetric", "--n", "5", "--scan", "short", "--theta", "1/3"),
        ("--family", "dihedral", "--n", "12", "--scan", "random", "--mode", "float",
         "--theta", "1/2"),
        ("--family", "dihedral", "--n", "12", "--scan", "long", "--mode", "float",
         "--theta", "1/2"),
    ],
)
def test_identity_start_analyze_builds_no_dense_kernel(runner, monkeypatch, args):
    _refuse_dense_kernels(monkeypatch)
    res = invoke(runner, "analyze", *args, "--lmin", "2", "--lmax", "3")
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert [row["l"] for row in rows] == [2, 3]
    assert all(row["match"] is True and row["tv"] is not None for row in rows)


@pytest.mark.parametrize("family", [symmetric(6), hypercube(9)], ids=str)
def test_exact_identity_start_analyze_builds_only_the_identity(runner, monkeypatch, family):
    """Positions and action tables are read off payloads: from tables not
    yet cached, an exact run from the identity builds one group element."""
    start = coxeter.identity(family).payload
    fresh = functools.lru_cache(maxsize=None)(coxeter.action_tables.__wrapped__)
    monkeypatch.setattr(coxeter, "action_tables", fresh)
    built, new = [], coxeter.GroupElement.__new__

    def spy(cls, family, payload):
        built.append(payload)
        return new(cls, family, payload)

    monkeypatch.setattr(coxeter.GroupElement, "__new__", spy)
    res = invoke(
        runner,
        "analyze", "--family", family.kind, "--n", str(family.n), "--theta", "1/2",
        "--lmax", "1",
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"][0]["match"] is True
    assert fresh.cache_info().currsize == 1
    assert built == [start]


@pytest.mark.parametrize(
    "args",
    [
        ("--family", "symmetric", "--n", "4", "--scan", "long"),
        ("--family", "symmetric", "--n", "4", "--scan", "short"),
        ("--family", "dihedral", "--n", "6", "--scan", "random", "--mode", "float"),
    ],
    ids=["long", "short", "random"],
)
def test_averaged_analyze_builds_no_dense_scan_kernel(runner, monkeypatch, args):
    _refuse_dense_kernels(monkeypatch)
    res = invoke(
        runner,
        "analyze", *args, "--theta", "1/2", "--averaged", "--lmin", "2", "--lmax", "3",
    )
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert [row["l"] for row in rows] == [2, 3]
    assert all(row["match"] is True for row in rows)


def test_verify_builds_no_dense_kernel(runner, monkeypatch):
    _refuse_dense_kernels(monkeypatch)
    res = invoke(runner, "verify", "--family", "symmetric", "--n", "4", "--theta", "1/2")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "8/8 checks passed"
    # negative control: the refusal does fire
    with pytest.raises(AssertionError, match="dense scan kernel"):
        chains.scan_kernel(symmetric(4), Fraction(1, 2), (1,))


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--family", "symmetric", "--n", "4", "--scan", "long", "--lmax", "3"),
        ("analyze", "--family", "symmetric", "--n", "4", "--scan", "short", "--lmax", "3"),
        ("analyze", "--family", "hypercube", "--n", "4", "--scan", "random", "--lmax", "3"),
        ("analyze", "--family", "symmetric", "--n", "4", "--averaged", "--lmax", "3"),
        ("verify", "--family", "symmetric", "--n", "4"),
        ("sample", "--family", "symmetric", "--n", "4", "-N", "200"),
    ],
    ids=["long", "short", "random", "averaged", "verify", "sample"],
)
def test_run_paths_read_no_per_cell_fractions(runner, monkeypatch, args):
    """Every run path reduces on a distribution's numerators and denominator;
    the per-cell Fraction view is for tests only."""

    def refuse(self):
        raise AssertionError("a per-cell Fraction view was read")

    monkeypatch.setattr(chains.Distribution, "probs", property(refuse))
    res = invoke(runner, *args, "--theta", "1/2")
    assert res.exit_code == 0, res.output
    if args[0] == "sample":
        assert json.loads(res.output)["summary"]["empirical_tv"] is not None


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--family", "symmetric", "--n", "8", "--theta", "1/2"),
        ("analyze", "--family", "hypercube", "--n", "15", "--theta", "1/2",
         "--averaged", "--lmax", "1"),
    ],
)
def test_dense_operator_paths_refuse_past_the_cell_budget(runner, args):
    start = time.perf_counter()
    res = invoke(runner, *args)
    assert time.perf_counter() - start < 0.5
    assert res.exit_code == 2
    assert "|W|^2" in res.output
    assert str(chains.dense_cell_budget()) in res.output


def test_cell_budget_follows_the_enumeration_cap(runner):
    # S_4 has 576 cells: over 20 * 25, within 20 * 30
    args = ("verify", "--family", "symmetric", "--n", "4", "--theta", "1/2")
    assert invoke(runner, *args, env={"HECKE_METRO_CAP": "25"}).exit_code == 2
    assert invoke(runner, *args, env={"HECKE_METRO_CAP": "30"}).exit_code == 0


@pytest.mark.parametrize("cap", ["abc", "1e6", "-5"])
@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--family", "symmetric", "--n", "4", "--theta", "1/2", "--lmax", "1"),
        ("analyze", "--family", "symmetric", "--n", "4", "--theta", "1/2", "--lmax", "1",
         "--mode", "float"),
        ("verify", "--family", "symmetric", "--n", "4", "--theta", "1/2"),
        ("sample", "--family", "symmetric", "--n", "4", "--theta", "1/2", "-N", "5"),
    ],
    ids=["analyze-exact", "analyze-float", "verify", "sample"],
)
def test_a_cap_that_is_not_a_nonnegative_integer_is_a_usage_error(runner, args, cap):
    res = invoke(runner, *args, env={"HECKE_METRO_CAP": cap})
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"Error: HECKE_METRO_CAP must be a nonnegative integer, got {cap!r}\n"


def test_identity_start_analyze_is_not_held_to_the_cell_budget(runner):
    res = invoke(
        runner,
        "analyze", "--family", "symmetric", "--n", "8", "--theta", "1/2",
        "--scan", "short", "--lmax", "1",
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"][0]["match"] is True


def test_float_averaged_analyze_past_the_cell_budget_skips_the_oracle(runner):
    res = invoke(
        runner,
        "analyze", "--family", "hypercube", "--n", "15", "--theta", "1/2",
        "--averaged", "--lmax", "1", "--mode", "float",
    )
    assert res.exit_code == 0
    row = json.loads(res.output)["rows"][0]
    assert isinstance(row["chisq_formula"], float)
    assert row["chisq_oracle"] is None and row["match"] is None


@pytest.mark.parametrize("theta", ["1/3", "0.1"])
@pytest.mark.parametrize("n", ["4", "5"])
@pytest.mark.parametrize("scan", ["long", "short"])
@pytest.mark.parametrize("averaged", [[], ["--averaged"]], ids=["identity", "averaged"])
def test_float_analyze_runs_the_oracle_at_theta_as_typed(
    runner, monkeypatch, theta, n, scan, averaged
):
    """Float mode's oracle columns are the floats of exact mode's: chains
    gets the rational typed, not the binary expansion of its float."""
    seen = []
    for name in ("evolve_scan", "power_sums"):
        def spy(family, theta, *rest, _run=getattr(chains, name)):
            seen.append(theta)
            return _run(family, theta, *rest)

        monkeypatch.setattr(chains, name, spy)
    argv = ["analyze", "--family", "symmetric", "--n", n, "--scan", scan, "--theta", theta,
            "--lmax", "3", *averaged]
    exact = invoke(runner, *argv)
    assert exact.exit_code == 0
    seen.clear()
    res = invoke(runner, *argv, "--mode", "float")
    assert res.exit_code == 0
    assert seen and all(type(t) is Fraction and t == Fraction(theta) for t in seen)
    rows = json.loads(res.output)["rows"]
    for want, row in zip(json.loads(exact.output)["rows"], rows, strict=True):
        assert row["chisq_oracle"] == float(Fraction(want["chisq_oracle"]))
        assert row["tv"] == (None if want["tv"] is None else float(Fraction(want["tv"])))
        assert row["match"] is True


def test_float_match_fails_a_wrong_form_below_1e_15(runner, monkeypatch):
    # a form twice the truth; at l = 4 and 5 both values are below 1e-15
    # (2.7e-17 and 4.2e-22 against 1.4e-17 and 2.1e-22)
    argv = ["analyze", "--family", "symmetric", "--n", "4", "--scan", "long",
            "--theta", "1/4", "--mode", "float", "--lmax", "5"]
    res = invoke(runner, *argv)
    assert res.exit_code == 0
    assert [row["match"] for row in json.loads(res.output)["rows"]] == [True] * 5
    form = spectral.closed_form
    monkeypatch.setattr(spectral, "closed_form", lambda *args: 2 * form(*args))
    res = invoke(runner, *argv)
    assert res.exit_code == 1
    rows = json.loads(res.output)["rows"]
    assert rows[-1]["chisq_formula"] < 1e-15
    assert [row["match"] for row in rows] == [False] * 5


def test_analyze_float_hypercube_random_scan_beyond_the_float_range(runner):
    res = runner.invoke(
        cli.main,
        ["analyze", "--family", "hypercube", "--n", "1000", "--scan", "random",
         "--mode", "float", "--theta", "1/4", "--lmax", "40"],
    )
    assert res.exception is None
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert len(rows) == 40
    assert rows[-1]["chisq_formula"] == float("inf")
    assert "Infinity" in res.output and "NaN" not in res.output


@pytest.mark.parametrize("averaged", [[], ["--averaged"]], ids=["start", "averaged"])
def test_analyze_float_hypercube_long_scan_at_an_n_past_the_float_range(runner, averaged):
    res = invoke(
        runner,
        "analyze", "--family", "hypercube", "--n", str(10**309), "--theta", "1/2",
        "--lmax", "1", "--mode", "float", *averaged,
    )
    assert res.exit_code == 0
    (row,) = json.loads(res.output)["rows"]
    assert row["chisq_formula"] == float("inf") and row["chisq_oracle"] is None


def test_analyze_exact_hypercube_12_long_scan(runner):
    res = invoke(
        runner,
        "analyze", "--family", "hypercube", "--n", "12", "--theta", "1/2",
        "--scan", "long", "--lmax", "2",
    )
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert len(rows) == 2
    assert all(row["match"] is True for row in rows)


# ---------------------------------------------------------------------------
# verify


def test_verify_all_invariants_pass(runner):
    res = invoke(
        runner, "verify", "--family", "symmetric", "--n", "4", "--theta", "2/3"
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[-1] == "8/8 checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert "PASS generator kernels == algebra left multiplication" in lines


@pytest.mark.parametrize(
    ("family", "n"), [("hypercube", 5), ("dihedral", 7)]
)
def test_verify_other_families(runner, family, n):
    res = invoke(
        runner, "verify", "--family", family, "--n", str(n), "--theta", "1/2"
    )
    assert res.exit_code == 0
    assert "8/8 checks passed" in res.output


def _corrupt_first_generator(monkeypatch):
    """Patch ``chains.generator_rows`` so that in the rows of K_1 the move
    out of the identity, the one entry of its row, sits on the diagonal."""
    rows_of = chains.generator_rows

    def corrupted(family, theta, i):
        rows = rows_of(family, theta, i)
        if i == 1:
            x = coxeter.index(coxeter.identity(family))
            ((_, value),) = rows[x].items()
            rows[x] = {x: value}
        return rows

    monkeypatch.setattr(chains, "generator_rows", corrupted)


@pytest.fixture()
def corrupted_first_generator(monkeypatch):
    _corrupt_first_generator(monkeypatch)


def test_verify_negative_control_catches_a_corrupted_kernel(
    runner, corrupted_first_generator
):
    res = invoke(
        runner, "verify", "--family", "symmetric", "--n", "4", "--theta", "2/3"
    )
    assert res.exit_code == 1
    assert "FAIL generator kernels == algebra left multiplication" in res.output
    assert "8/8" not in res.output


def test_verify_negative_control_catches_a_wrong_long_recipe(runner, monkeypatch):
    # the short recipe is a valid scan, but its kernel is not L(T~_{w0}^2)
    monkeypatch.setattr(chains, "long_recipe", chains.short_recipe)
    res = invoke(
        runner, "verify", "--family", "symmetric", "--n", "4", "--theta", "1/2"
    )
    assert res.exit_code == 1
    assert "FAIL long scan == squared longest element" in res.output.splitlines()


@functools.lru_cache(maxsize=None)
def _dense_left_multiplications(family, theta):
    """The dense matrices L(T~_i), one per generator, and L(T~_{w0}^2)."""
    q = 1 / theta
    generators = [
        oracle.left_mult_matrix(oracle.tilde_word(family, q, (i,)))
        for i in coxeter.generators(family)
    ]
    tw0 = hecke.tilde_unit(family, q, coxeter.longest_element(family))
    return generators, oracle.left_mult_matrix(hecke.product(tw0, tw0))


@pytest.mark.parametrize(
    "family",
    [symmetric(n) for n in range(2, 6)]
    + [hypercube(n) for n in range(1, 7)]
    + [dihedral(n) for n in range(3, 9)],
    ids=str,
)
@pytest.mark.parametrize(
    "theta", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)], ids=str
)
@pytest.mark.parametrize("variant", ["plain", "perturbed", "wrong-recipe"])
def test_local_operator_checks_equal_the_dense_comparisons(
    family, theta, variant, monkeypatch
):
    """verify checks 1 and 2, row by row, against dense matrix equality."""
    # at theta = 1, or when the recipes coincide, the short scan is the long one
    short = chains.scan_kernel(family, theta, chains.short_recipe(family))
    long = chains.scan_kernel(family, theta, chains.long_recipe(family))
    wrong_recipe_is_long = short.matrix == long.matrix
    kernels = []
    for i in coxeter.generators(family):
        rows = chains.generator_rows(family, theta, i)
        K = chains.Kernel(family, theta, rows, theta.denominator)
        # the rows read off the tables are those of the one-letter scan
        assert K.matrix == chains.scan_kernel(family, theta, (i,)).matrix
        kernels.append(K)
    if variant == "perturbed":
        _corrupt_first_generator(monkeypatch)
        rows = chains.generator_rows(family, theta, 1)
        kernels[0] = chains.Kernel(family, theta, rows, theta.denominator)
    if variant == "wrong-recipe":
        monkeypatch.setattr(chains, "long_recipe", chains.short_recipe)
    checks = dict(cli._verify_checks(family, theta))
    generators, square = _dense_left_multiplications(family, theta)
    dense_1 = all((K.matrix == L).all() for K, L in zip(kernels, generators))
    long_kernel = chains.scan_kernel(family, theta, chains.long_recipe(family))
    dense_2 = bool((long_kernel.matrix == square).all())
    assert checks["generator kernels == algebra left multiplication"]() == dense_1
    assert checks["long scan == squared longest element"]() == dense_2
    # each variant corrupts what it names, and only that
    assert dense_1 == (variant != "perturbed")
    assert dense_2 == (variant != "wrong-recipe" or wrong_recipe_is_long)


@pytest.mark.parametrize("family", [hypercube(3), dihedral(6)], ids=str)
def test_verify_perturbed_kernel_fails_check_one(runner, corrupted_first_generator, family):
    # symmetric(4) is test_verify_negative_control_catches_a_corrupted_kernel
    res = invoke(
        runner, "verify", "--family", family.kind, "--n", str(family.n), "--theta", "1/2"
    )
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert "FAIL generator kernels == algebra left multiplication" in lines
    # the corrupted identity row of K_1 also breaks checks 3 and 4, and only those
    assert "FAIL generator kernels preserve stationary law" in lines
    assert "FAIL generator kernels reversible" in lines
    assert lines[-1] == "5/8 checks passed"


VERIFY_ARGV = [
    ("verify", "--family", family.kind, "--n", str(family.n), "--theta", "2/3")
    for family in (symmetric(4), hypercube(3), dihedral(5))
]


@pytest.mark.parametrize("args", VERIFY_ARGV, ids=" ".join)
def test_verify_asks_the_block_sum_for_five_powers(runner, monkeypatch, args):
    """Check 6 compares tr(K^m) for m = 1, 2, 3, 4 and 6, once each."""
    asked, trace = [], spectral.long_scan_trace

    def spy(family, theta, m):
        asked.append(m)
        return trace(family, theta, m)

    monkeypatch.setattr(spectral, "long_scan_trace", spy)
    res = invoke(runner, *args)
    assert res.stdout.splitlines()[-1] == "8/8 checks passed"
    assert sorted(asked) == [1, 2, 3, 4, 6]


@pytest.mark.parametrize("args", VERIFY_ARGV, ids=" ".join)
def test_verify_catches_a_block_sum_off_at_the_sixth_power(runner, monkeypatch, args):
    trace = spectral.long_scan_trace
    monkeypatch.setattr(
        spectral,
        "long_scan_trace",
        lambda family, theta, m: trace(family, theta, m) + (m == 6),
    )
    res = invoke(runner, *args)
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert "FAIL long-scan traces match block sum (m=1..4, 6)" in lines
    assert lines[-1] == "7/8 checks passed"


@pytest.mark.parametrize(
    "args",
    [
        *VERIFY_ARGV,
        (
            "analyze", "--family", "symmetric", "--n", "4", "--theta", "2/3",
            "--scan", "short", "--averaged", "--lmax", "3",
        ),
    ],
    ids=" ".join,
)
def test_each_pass_walks_the_descent_tree_once(runner, monkeypatch, args):
    """verify reads three passes of the long scan, and analyze --averaged
    --lmax 3 three passes of its scan: one walk of the tree each."""
    walks, walk = [], chains._walk

    def counted(*walk_args):
        walks.append(walk_args)
        return walk(*walk_args)

    monkeypatch.setattr(chains, "_walk", counted)
    res = invoke(runner, *args)
    assert res.exit_code == 0
    assert len(walks) == 3


# ---------------------------------------------------------------------------
# sample


def test_sample_summary_and_determinism(runner, tmp_path):
    args = (
        "sample", "--family", "symmetric", "--n", "4", "--theta", "1/2",
        "-N", "400", "--seed", "4",
    )
    first = invoke(runner, *args, "--out", str(tmp_path / "a.json"))
    second = invoke(runner, *args, "--out", str(tmp_path / "b.json"))
    assert first.exit_code == 0 and second.exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    payload = json.loads((tmp_path / "a.json").read_text())
    assert set(payload) == {"config", "summary", "rows", "provenance"}
    assert set(payload["config"]) >= {
        "command", "family", "n", "theta", "num_samples", "seed"
    }
    assert len(payload["rows"]) == 400
    assert sorted(payload["rows"][0]) == [1, 2, 3, 4]


def test_sample_writes_one_compact_line_per_draw(runner, tmp_path):
    # 3000 draws, so the rows go out in more than one batch
    args = (
        "sample", "--family", "symmetric", "--n", "8", "--theta", "3/4",
        "-N", "3000", "--seed", "4",
    )
    res = runner.invoke(cli.main, list(args), catch_exceptions=False)
    assert res.exit_code == 0
    assert invoke(runner, *args, "--out", str(tmp_path / "a.json")).exit_code == 0
    payload = json.loads(res.stdout_bytes)
    assert len(payload["rows"]) == 3000
    rows = ",\n".join("    " + json.dumps(r, separators=(",", ":")) for r in payload["rows"])
    expected = json.dumps({**payload, "rows": "ROWS"}, indent=2).replace(
        '"ROWS"', "[\n" + rows + "\n  ]"
    )
    assert res.stdout_bytes == (expected + "\n").encode()
    assert (tmp_path / "a.json").read_bytes() == res.stdout_bytes


def test_sample_seed_changes_the_stream(runner, tmp_path):
    base = (
        "sample", "--family", "hypercube", "--n", "6", "--theta", "1/3",
        "-N", "50",
    )
    a = invoke(runner, *base, "--seed", "1", "--out", str(tmp_path / "a.json"))
    b = invoke(runner, *base, "--seed", "2", "--out", str(tmp_path / "b.json"))
    assert a.exit_code == 0 and b.exit_code == 0
    assert json.loads((tmp_path / "a.json").read_text())["rows"] != json.loads(
        (tmp_path / "b.json").read_text()
    )["rows"]


def test_sample_beyond_the_cap_drops_the_tv_column(runner):
    res = invoke(
        runner,
        "sample", "--family", "symmetric", "--n", "9", "--theta", "1/2",
        "-N", "200",
    )
    assert res.exit_code == 0
    summary = json.loads(res.output)["summary"]
    assert summary["empirical_tv"] is None
    assert abs(summary["mean_z_score"]) < 3


def test_sample_beyond_the_cap_takes_moments_from_the_typed_rational(runner, monkeypatch):
    # past the cap the draws use the float 0.3; the exact moments must use
    # 3/10, not the float's binary expansion with its 2^54 denominator
    seen = []
    moments = sampler.length_moments

    def spy(family, theta):
        seen.append(theta)
        return moments(family, theta)

    monkeypatch.setattr(sampler, "length_moments", spy)
    res = invoke(
        runner,
        "sample", "--family", "symmetric", "--n", "9", "--theta", "0.3", "-N", "5",
    )
    assert res.exit_code == 0
    assert len(seen) == 1
    assert type(seen[0]) is Fraction and seen[0] == Fraction(3, 10)


def test_sample_dihedral_beyond_the_cap(runner):
    # 2n = 60000 elements: the sampler reads pi off the length formula
    res = invoke(
        runner,
        "sample", "--family", "dihedral", "--n", "30000", "--theta", "1/2",
        "-N", "10",
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["summary"]["empirical_tv"] is None
    assert abs(payload["summary"]["mean_z_score"]) <= 3
    rows = payload["rows"]
    assert len(rows) == 10
    for k, f in rows:
        coxeter.GroupElement(dihedral(30000), (k, f))  # revalidates the payload


def test_sample_within_the_cap_reports_tv(runner):
    res = invoke(
        runner,
        "sample", "--family", "dihedral", "--n", "5", "--theta", "1/2",
        "-N", "500",
    )
    assert res.exit_code == 0
    summary = json.loads(res.output)["summary"]
    assert 0 <= summary["empirical_tv"] <= 1
    assert set(summary) == {
        "length_mean", "length_variance", "predicted_mean",
        "predicted_variance", "mean_z_score", "empirical_tv",
    }


@pytest.mark.parametrize(
    ("n", "theta"),
    [("4", "2"), ("4", "1/0"), ("9", "0"), ("4", "1e-400"), ("30", "1e-400")],
)
def test_sample_rejects_theta_outside_the_window(runner, n, theta):
    # the draws run on theta's float, which 1e-400 underflows to 0.0: it is
    # refused within the cap (n = 4) as beyond it (n = 30)
    res = invoke(
        runner,
        "sample", "--family", "symmetric", "--n", n, "--theta", theta, "-N", "10",
    )
    assert res.exit_code == 2
    assert "theta" in res.output


def test_zero_denominator_theta_is_a_usage_error(runner):
    for args in (
        ("analyze", *SYMMETRIC_3, "--theta", "1/0", "--lmax", "1"),
        ("verify", *SYMMETRIC_3, "--theta", "1/0"),
        ("bounds", "--theta", "1/0"),
    ):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert "zero denominator" in res.output


def test_sample_rejects_nonpositive_draw_counts(runner):
    res = invoke(
        runner,
        "sample", "--family", "symmetric", "--n", "4", "--theta", "1/2",
        "-N", "0",
    )
    assert res.exit_code == 2


def test_sample_rejects_a_negative_seed(runner):
    res = invoke(
        runner,
        "sample", "--family", "symmetric", "--n", "4", "--theta", "1/2",
        "--seed", "-1",
    )
    assert res.exit_code == 2
    assert "--seed" in res.output


# ---------------------------------------------------------------------------
# bounds


def test_bounds_csv_grid(runner):
    res = invoke(runner, "bounds", "--n", "20", "--theta", "1/2", "--c", "5")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "family,kind,n,theta,c,value"
    table = {
        (row[0], row[1]): row for row in (line.split(",") for line in lines[1:])
    }
    assert table[("symmetric", "short_scan_start")][5] == "0.0004884004786944731"
    assert table[("hypercube", "lead_constant_random")][4] == ""  # no c column
    assert table[("dihedral", "single_pass")][4] == "1"  # one-pass bound
    kinds = {k for (_, k) in table}
    assert kinds == {
        "short_scan_start", "short_scan_averaged", "random_scan",
        "systematic_scan", "long_scan_start", "long_scan_averaged",
        "single_pass", "lead_constant_random", "lead_constant_systematic",
    }


def test_bounds_values_shrink_with_more_slack(runner):
    res = invoke(
        runner, "bounds", "--n", "30", "--theta", "1/3", "--c", "2", "--c", "6"
    )
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.output.splitlines()[1:]]
    by_c = {}
    for family, kind, n, theta, c, value in rows:
        if kind == "short_scan_start":
            by_c[c] = float(value)
    assert by_c["6.0"] < by_c["2.0"]


def test_bounds_reject_theta_one(runner):
    res = invoke(runner, "bounds", "--theta", "1")
    assert res.exit_code == 2
    assert "strictly inside (0, 1)" in res.output


@pytest.mark.parametrize(
    "args",
    [("--theta", "1/2", "--n", "0"), ("--theta", "1/2", "--c", "-1"),
     ("--theta", "5/4"), ("--theta", "1/2", "--c", "nan"),
     ("--theta", "1/2", "--c", "inf"), ("--theta", "1/2", "--c", "1e400")],
)
def test_bounds_reject_bad_grids(runner, args):
    res = invoke(runner, "bounds", *args)
    assert res.exit_code == 2


@pytest.mark.parametrize("n", ["1", "2"])
def test_bounds_refuse_groups_without_dihedral_rows(runner, n):
    res = invoke(runner, "bounds", "--n", "10", "--n", n, "--theta", "1/2")
    assert res.exit_code == 2
    assert "n >= 3" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "n", [math.isqrt(int(sys.float_info.max)), 10**155, 10**306, 2**1024],
    ids=["largest", "10^155", "10^306", "2^1024"],
)
def test_bounds_refuse_an_n_whose_square_is_past_the_float_range(runner, n):
    res = invoke(runner, "bounds", "--n", str(n), "--theta", "1/2", "--c", "1")
    if n * n <= sys.float_info.max:
        assert res.exit_code == 0
        assert len(res.stdout.splitlines()) == 11
    else:
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "bounds need n^2 within the float range" in res.stderr


def test_bounds_beyond_the_float_range_print_infinity(runner):
    res = invoke(runner, "bounds", "--n", "1000", "--theta", "1/10", "--c", "1")
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.output.splitlines()[1:]]
    values = {(family, kind): float(value) for family, kind, n, theta, c, value in rows}
    assert values[("dihedral", "random_scan")] == float("inf")


def test_bounds_past_the_float_range_of_pass_counts_underflow_to_zero(runner):
    # c = 1e308 makes a 309-digit pass count for the dihedral random scan
    res = invoke(runner, "bounds", "--n", "10", "--theta", "1/2", "--c", "1e308")
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.output.splitlines()[1:]]
    values = {(family, kind): float(value) for family, kind, n, theta, c, value in rows}
    assert len(values) == len(rows) == 10
    assert values[("dihedral", "random_scan")] == 0.0


def test_bounds_out_file(runner, tmp_path):
    out = tmp_path / "bounds.csv"
    res = invoke(
        runner, "bounds", "--n", "10", "--theta", "0.5", "--out", str(out)
    )
    assert res.exit_code == 0
    assert out.read_text().splitlines()[0] == "family,kind,n,theta,c,value"
    assert [p.name for p in tmp_path.iterdir()] == ["bounds.csv"]


# ---------------------------------------------------------------------------
# shared plumbing


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--family", "symmetric", "--n", "8", "--theta", "1/2",
         "--lmax", "3"),
        ("bounds", "--n", "10", "--theta", "1/2"),
        ("sample", "--family", "symmetric", "--n", "4", "--theta", "1/2"),
        ("verify", "--family", "symmetric", "--n", "4", "--theta", "1/2"),
    ],
    ids=["analyze", "bounds", "sample", "verify"],
)
def test_out_into_a_missing_directory_is_a_usage_error(
    runner, tmp_path, monkeypatch, args
):
    """Refused while the options are parsed: no subcommand reaches its work."""

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    for module, name in [
        (chains, "evolve_scan"), (chains, "power_sums"), (chains, "scan_kernel"),
        (sampler, "mallows_sample"), (spectral, "bound_symmetric_scans"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "missing" / "report"
    res = invoke(runner, *args, "--out", str(out))
    assert res.exit_code == 2
    if args[0] == "verify":  # prints its checks; it has no --out
        assert res.stderr.startswith("usage: hecke-metro verify ")
        assert "unrecognized arguments: --out" in res.output
    else:
        assert f"cannot write --out {out}" in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--family", "symmetric", "--n", "3", "--theta", "1/2", "--lmax", "1"),
        ("bounds", "--n", "3", "--theta", "1/2", "--c", "1"),
        ("sample", "--family", "symmetric", "--n", "3", "--theta", "1/2", "-N", "2"),
    ],
    ids=["analyze", "bounds", "sample"],
)
def test_out_onto_a_fifo_is_a_usage_error(runner, tmp_path, args):
    """Refused while the options are parsed; the FIFO is never opened, since
    an open for writing would block."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    res = invoke(runner, *args, "--out", str(fifo))
    assert res.exit_code == 2
    assert res.stderr.startswith(f"usage: hecke-metro {args[0]} ")
    assert "it is not a regular file" in res.output
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


BOUNDS = ("bounds", "--n", "3", "--theta", "1/2", "--c", "1")


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.mark.parametrize("mode", [0o644, 0o640], ids=oct)
def test_out_keeps_the_mode_of_an_existing_file(runner, tmp_path, umask_022, mode):
    out = tmp_path / "bounds.csv"
    out.write_text("stale\n")
    os.chmod(out, mode)
    assert invoke(runner, *BOUNDS, "--out", str(out)).exit_code == 0
    assert out.read_text().startswith("family,kind,n,theta,c,value\n")
    assert stat.S_IMODE(os.stat(out).st_mode) == mode


def test_out_gives_a_new_file_the_mode_of_the_umask(runner, tmp_path, umask_022):
    out = tmp_path / "bounds.csv"
    assert invoke(runner, *BOUNDS, "--out", str(out)).exit_code == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o644


def test_out_through_a_symlink_writes_its_target(runner, tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("stale\n")
    link.symlink_to(target)
    assert invoke(runner, *BOUNDS, "--out", str(link)).exit_code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith("family,kind,n,theta,c,value\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]


@pytest.mark.parametrize(
    "out", ["", "missing" + os.sep, "."], ids=["empty", "directory", "existing-directory"]
)
def test_out_naming_no_file_is_a_usage_error(runner, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    res = invoke(runner, "bounds", "--n", "10", "--theta", "1/2", "--out", out)
    assert res.exit_code == 2
    assert "names no file" in res.output
    assert list(tmp_path.iterdir()) == []


def test_unknown_family_is_a_usage_error(runner):
    res = invoke(
        runner,
        "analyze", "--family", "affine", "--n", "3", "--theta", "1/2",
        "--lmax", "1",
    )
    assert res.exit_code == 2


@pytest.mark.parametrize(
    ("family", "n"),
    [("symmetric", 1), ("hypercube", 0), ("dihedral", 2)],
)
def test_family_size_floors(runner, family, n):
    res = invoke(
        runner,
        "analyze", "--family", family, "--n", str(n), "--theta", "1/2",
        "--lmax", "1",
    )
    assert res.exit_code == 2


def test_theta_accepts_decimals_in_float_mode(runner):
    res = invoke(
        runner,
        "analyze", "--family", "hypercube", "--n", "4", "--theta", "0.8",
        "--scan", "random", "--lmax", "2", "--mode", "float",
    )
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert all(row["match"] is True for row in rows)


@pytest.mark.parametrize("module", ["sympy", "click", "numpy"])
def test_importing_the_cli_does_not_import(module):
    code = f"import sys, hecke_metro.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_version_in_a_fresh_process():
    # the benchmark's setup probe refuses to run without "version" in this output
    out = subprocess.run(
        [sys.executable, "-m", "hecke_metro.cli", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout == "hecke-metro, version 0.1.0\n"


# Runs the argv given as JSON in a fresh interpreter, then reports on stderr
# whether numpy was ever imported.
_NUMPY_PROBE = """
import json, sys
from hecke_metro import cli
cli.main(json.loads(sys.argv[1]), prog_name="hecke-metro", standalone_mode=False)
print(json.dumps("numpy" in sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "args, imports_numpy",
    [
        (["analyze", "--family", "symmetric", "--n", "4", "--theta", "1/2", "--lmax", "2"], False),
        (["analyze", "--family", "symmetric", "--n", "4", "--theta", "1/2", "--lmax", "2",
          "--averaged"], False),
        (["verify", "--family", "dihedral", "--n", "5", "--theta", "1/2"], False),
        (["bounds", "--n", "10", "--theta", "1/2"], False),
        # the sampler draws from numpy's PCG64 stream
        (["sample", "--family", "symmetric", "--n", "4", "--theta", "1/2", "-N", "10"], True),
    ],
    ids=["analyze", "analyze-averaged", "verify", "bounds", "sample"],
)
def test_only_sample_imports_numpy(args, imports_numpy):
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(args)],
        capture_output=True, text=True, check=True,
    )
    assert out.stderr.splitlines()[-1] == json.dumps(imports_numpy)


# Runs the argv given as JSON in a fresh interpreter and prints on stderr the
# files whose module code ran after the audit hook was added: the hook sees
# each module's code as it runs, whether or not bytecode is cached.
_EXEC_PROBE = """
import json, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
from hecke_metro import cli
code = cli.main(json.loads(sys.argv[1]), prog_name="hecke-metro", standalone_mode=False)
print(json.dumps([code, sorted(ran)]), file=sys.stderr)
"""

_LAYERS = ["chains", "coxeter", "hecke", "sampler", "spectral"]


def _layer_file(layer):
    return os.path.join(os.path.dirname(cli.__file__), f"{layer}.py")


# No command runs dataclasses, and none but sample (numpy imports it) runs
# inspect: the records are named tuples
_UNUSED_STDLIB = ["dataclasses", "inspect"]


@pytest.mark.parametrize(
    "args, unused",
    [
        (["--version"], _LAYERS + _UNUSED_STDLIB + ["csv"]),
        (["--help"], _LAYERS + _UNUSED_STDLIB + ["csv"]),
        (["analyze", "--help"], _LAYERS + _UNUSED_STDLIB + ["csv"]),
        (["analyze", "--family", "symmetric", "--lotto"], _LAYERS + _UNUSED_STDLIB + ["csv"]),
        (["analyze", "--family", "symmetric", "--n", "3", "--theta", "1/2", "--lmax", "2"],
         ["sampler", "hecke"] + _UNUSED_STDLIB),
        (["analyze", "--family", "dihedral", "--n", "5", "--theta", "1/2", "--lmax", "2",
          "--scan", "random", "--mode", "float", "--averaged"],
         ["sampler", "hecke"] + _UNUSED_STDLIB),
        (["verify", "--family", "symmetric", "--n", "4", "--theta", "1/2"],
         ["sampler"] + _UNUSED_STDLIB),
        (["bounds", "--n", "10", "--theta", "1/2"],
         ["chains", "hecke", "sampler"] + _UNUSED_STDLIB),
        (["sample", "--family", "dihedral", "--n", "5", "--theta", "1/2", "-N", "3"],
         ["spectral", "hecke", "dataclasses"]),
        (["sample", "--family", "symmetric", "--n", "30", "--theta", "1/2", "-N", "3"],
         ["chains", "spectral", "hecke", "dataclasses"]),
    ],
    ids=["version", "help", "analyze-help", "usage-error", "analyze", "analyze-float", "verify",
         "bounds", "sample", "sample-past-the-cap"],
)
def test_each_command_runs_only_the_modules_it_uses(args, unused):
    import csv
    import dataclasses
    import inspect

    stdlib = {"inspect": inspect.__file__, "csv": csv.__file__, "dataclasses": dataclasses.__file__}
    out = subprocess.run(
        [sys.executable, "-c", _EXEC_PROBE, json.dumps(args)], capture_output=True, text=True
    )
    code, ran = json.loads(out.stderr.splitlines()[-1])
    assert code == (2 if "--lotto" in args else 0)
    ran = {os.path.realpath(f) for f in ran}
    files = {name: stdlib.get(name) or _layer_file(name) for name in unused}
    assert [name for name, f in files.items() if os.path.realpath(f) in ran] == []
    # the probe sees what does run
    assert os.path.realpath(cli.__file__) in ran


_MODULES_PROBE = """
import sys
import hecke_metro.cli, hecke_metro.chains
print(sorted(k for k in sys.modules if k.startswith("hecke_metro.")))
print(callable(hecke_metro.chains.evolve_scan), hecke_metro.cli.chains is hecke_metro.chains)
"""


def test_importing_the_cli_lists_every_layer_and_loads_them_on_use():
    # tools that wrap the layers look them up in sys.modules right after
    # importing the cli, and reach them through the package attributes
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE], capture_output=True, text=True, check=True
    )
    modules, resolved = out.stdout.splitlines()
    assert modules == repr(sorted(f"hecke_metro.{layer}" for layer in _LAYERS + ["cli"]))
    assert resolved == "True True"


def test_the_scan_choices_are_the_names_chains_and_closed_form_take():
    """``--scan`` offers what chains and closed_form take, and what both
    name when they refuse a scan."""
    parser = cli._parser("hecke-metro")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (option,) = [a for a in commands.choices["analyze"]._actions if a.dest == "scan"]
    family, theta = hypercube(3), Fraction(1, 2)
    for name in option.choices:  # every name has a form on the hypercube
        chains.power_sums(family, theta, name, 1)
        spectral.closed_form(family, name, theta, 1)
    for refuse in (
        lambda: chains.power_sums(family, theta, "diagonal", 1),
        lambda: spectral.closed_form(family, "diagonal", theta, 1),
    ):
        with pytest.raises(ValueError) as refused:
            refuse()
        assert re.findall(r'"(\w+)"', str(refused.value)) == list(option.choices)


def test_subcommand_descriptions_are_their_cleaned_docstrings():
    import inspect

    parser = cli._parser("hecke-metro")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for run in (cli.analyze, cli.verify, cli.sample, cli.bounds):
        assert commands.choices[run.__name__].description == inspect.cleandoc(run.__doc__)


# ---------------------------------------------------------------------------
# grammar fuzz: every argv ends in an answer or a usage error


# Each argv is valid or has one option corrupted (a bad value, or missing).
# Runs stay cheap: n <= 12, lmax <= 4, N <= 50, and HECKE_METRO_CAP is 200
# or 20, which puts S_4, hypercube(5) and dihedral(11) beyond the cap.
FUZZ_VALUES = {
    "--family": ["symmetric", "hypercube", "dihedral"],
    "--n": [str(n) for n in range(1, 13)],
    "--theta": ["1/2", "1", "2/3", "0.25", "3/4", "1/3", "9/10"],
    "--scan": ["long", "short", "random"],
    "--lmin": ["1", "2"],
    "--lmax": ["1", "2", "3", "4"],
    "--mode": ["exact", "float"],
    "--format": ["json", "csv"],
    "-N": ["1", "7", "50"],
    "--seed": ["0", "4"],
    "--c": ["1", "2.5", "10", "1e300", "1e308"],
}
FUZZ_BAD_VALUES = {
    "--family": ["cyclic", ""],
    "--n": ["-1", "0", "x", "1.5"],
    "--theta": (
        ["0", "2", "5/4", "-1/2", "1.5"]  # outside (0, 1]
        + ["abc", "1/0", "", "nan", "inf", "1/2/3", "0x10"]  # malformed
    ),
    "--scan": ["sideways"],
    "--lmin": ["-1", "0", "5", "x"],
    "--lmax": ["-1", "0", "x"],
    "--mode": ["fast"],
    "--format": ["xml"],
    "-N": ["0", "-1", "x"],
    "--seed": ["-1", "x"],
    "--c": ["0", "-1", "x", "nan", "inf", "-inf", "1e400"],
}
FUZZ_OPTIONS = {
    "analyze": ["--family", "--n", "--theta", "--scan", "--lmin", "--lmax", "--mode",
                "--format"],
    "verify": ["--family", "--n", "--theta"],
    "sample": ["--family", "--n", "--theta", "-N", "--seed"],
    "bounds": ["--n", "--theta", "--c", "--n", "--theta", "--c"],
}
FUZZ_FLAGS = {"analyze": ["--averaged"]}


@st.composite
def cli_argv(draw):
    """A cheap argv of one subcommand, valid or with one option corrupted."""
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    options = [
        [flag, draw(st.sampled_from(FUZZ_VALUES[flag]))] for flag in FUZZ_OPTIONS[command]
    ]
    if draw(st.booleans()):
        option = draw(st.sampled_from(options))
        option[1:] = draw(st.sampled_from([[]] + [[v] for v in FUZZ_BAD_VALUES[option[0]]]))
        if not option[1:]:
            options.remove(option)
    flags = [flag for flag in FUZZ_FLAGS.get(command, []) if draw(st.booleans())]
    return [command] + [token for option in options for token in option] + flags


@given(argv=cli_argv(), cap=st.sampled_from(["200", "20"]))
@example(argv=["bounds", "--n", "10", "--theta", "1/2", "--c", "nan"], cap="20")
@example(
    argv=["sample", "--family", "dihedral", "--n", "12", "--theta", "1/2", "-N", "5"],
    cap="20",
)
@example(
    argv=["analyze", "--family", "symmetric", "--n", "12", "--scan", "short",
          "--mode", "float", "--theta", "1e-5", "--lmax", "3"],
    cap="50000",
)
# float forms with a binomial past the float range, or theta^(1 - n) past it
@example(
    argv=["analyze", "--family", "hypercube", "--n", "1030", "--theta", "0.5",
          "--scan", "short", "--lmax", "1", "--mode", "float"],
    cap="50000",
)
@example(
    argv=["analyze", "--family", "hypercube", "--n", "1030", "--theta", "0.5",
          "--scan", "long", "--averaged", "--lmax", "1", "--mode", "float"],
    cap="50000",
)
@example(
    argv=["analyze", "--family", "dihedral", "--n", "1025", "--theta", "1/2",
          "--scan", "random", "--lmin", "900", "--lmax", "900", "--mode", "float"],
    cap="200",
)
# ... and an exact oracle past the float range as a float
@example(
    argv=["analyze", "--family", "dihedral", "--n", "1025", "--theta", "1/2",
          "--scan", "random", "--lmax", "1", "--mode", "float"],
    cap="50000",
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_every_argv_ends_in_an_answer_or_a_usage_error(argv, cap):
    res = Runner().invoke(cli.main, argv, env={"HECKE_METRO_CAP": cap})
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        argv,
        res.output,
    )
    assert res.exit_code in (0, 1, 2), (argv, res.output)
