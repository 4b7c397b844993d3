"""The public names of each layer resolve, each exported record is a named
tuple, and the helpers only tests reach live in the test oracle.

Tooling that wraps the layers reads every name in their ``__all__`` with
``getattr`` (``perfbench/tracer.py`` does), so a stale entry left behind
by a deletion would break it at start-up.
"""

import importlib

import pytest

import fraction_oracle

LAYERS = ("coxeter", "hecke", "chains", "spectral", "sampler", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"hecke_metro.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_record_is_a_named_tuple(layer):
    # a dataclass would load dataclasses, and with it inspect and ast, in
    # every command that uses the layer
    module = importlib.import_module(f"hecke_metro.{layer}")
    exported = [getattr(module, name) for name in module.__all__]
    records = [c for c in exported if isinstance(c, type) and not issubclass(c, Exception)]
    assert [c.__name__ for c in records if not (issubclass(c, tuple) and c._fields)] == []


# reached from the tests alone, so kept with the test oracle
MOVED_TO_THE_ORACLE = [
    ("hecke", "tilde_word"),
    ("spectral", "short_scan_trace_symmetric"),
    ("sampler", "insertion_distribution"),
    ("sampler", "lower_bound_witness"),
]


@pytest.mark.parametrize("layer, name", MOVED_TO_THE_ORACLE)
def test_test_only_helpers_live_in_the_oracle(layer, name):
    module = importlib.import_module(f"hecke_metro.{layer}")
    assert not hasattr(module, name)
    assert callable(getattr(fraction_oracle, name))
