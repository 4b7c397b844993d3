"""The public names of each layer resolve.

Tooling that wraps the layers reads every name in their ``__all__`` with
``getattr`` (``perfbench/tracer.py`` does), so a stale entry left behind
by a deletion would break it at start-up.
"""

import importlib

import pytest

LAYERS = ("coxeter", "hecke", "chains", "spectral", "sampler", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"hecke_metro.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
