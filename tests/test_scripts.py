"""Smoke tests: each script in scripts/ runs its main() on a small input."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    ("script", "argv"),
    [
        ("bounds_table", ["--n", "20", "--theta", "1/2", "--cmax", "2"]),
        ("scan_comparison", ["--family", "symmetric", "--n", "3", "--lmax", "2"]),
        ("scan_comparison", ["--family", "dihedral", "--n", "5", "--lmax", "2"]),
        ("scan_comparison", ["--family", "hypercube", "--n", "3", "--lmax", "2"]),
        ("witness_demo", ["--n", "10", "--samples", "200"]),
    ],
)
def test_script_main_runs(script, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    try:
        module.main()
    except SystemExit as exc:  # argparse and friends exit through here
        assert exc.code in (0, None)
    assert capsys.readouterr().out.startswith("#")
