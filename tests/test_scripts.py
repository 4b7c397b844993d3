"""Smoke tests: each script in scripts/ runs its main() on a small input,
and refuses what the command line refuses with exit 2 and no traceback."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_main(script, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    module.main()


@pytest.mark.parametrize(
    ("script", "argv"),
    [
        ("witness_demo", ["--n", "10", "--samples", "200"]),
    ],
)
def test_script_main_runs(script, argv, monkeypatch, capsys):
    try:
        _run_main(script, argv, monkeypatch)
    except SystemExit as exc:  # argparse and friends exit through here
        assert exc.code in (0, None)
    assert capsys.readouterr().out.startswith("#")


@pytest.mark.parametrize(
    ("script", "argv"),
    [
        ("witness_demo", ["--theta", "2"]),
        ("witness_demo", ["--theta", "1", "--samples", "10"]),
    ],
)
def test_script_refuses_what_the_cli_refuses(script, argv, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _run_main(script, argv, monkeypatch)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
