"""Run one hecke-metro CLI job with spans recorded at layer boundaries.

Usage: python tracer.py OUT_JSON JOB_ID CLI_ARG...

The library is imported unchanged.  Every function in the ``__all__`` of
coxeter, hecke, chains, spectral and sampler, plus ``Kernel.matrix``, is
replaced by a wrapper in every hecke_metro module namespace that holds it.
A wrapper counts every call.  It records a span (name, start, end, parent)
only when its caller lives in another module, so intra-module hot loops
such as ``content_of_n_box`` pay a counter bump and no clock reads.  The
functions with a ``.s`` metric in ``layers.PER_LAYER`` are also timed on
intra-module calls (``long_scan_kernel`` reaches ``scan_kernel`` that way).
Spans stay in memory and are written to OUT_JSON when the job ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import weakref
from fractions import Fraction

from layers import LAYERS, PER_LAYER

# Functions whose total time is reported: their ``.s`` metrics.
TIMED = {name[: -len(".s")] for name, _, _ in PER_LAYER if name.endswith(".s")}


class Recorder:
    """Spans, call counts and the size counters of one job."""

    def __init__(self, kernel_type: type, scan_signature: inspect.Signature) -> None:
        self.kernel_type = kernel_type  # chains.Kernel
        self.scan_signature = scan_signature  # of chains.scan_kernel
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.counts = {
            "chains.dense_cells": 0,
            "chains.den_bits": 0,
            "chains.letters_applied": 0,
            "chains.letters_useful": 0,
            "hecke.left_mult_matrix.cells": 0,
        }
        self._kernels: dict[int, weakref.ref] = {}
        self._built: dict[tuple, list[tuple[int, ...]]] = {}

    def wrap(self, name, fn, home: dict, after=None, timed=False):
        """Wrap ``fn``, defined in the module whose namespace is ``home``.

        Every call is counted.  A call from another module opens a span.
        When ``timed``, every outermost call, from any module, adds its
        duration to ``seconds[name]``.
        """
        calls, spans, stack, seconds = self.calls, self.spans, self.stack, self.seconds
        calls[name] = 0
        if timed:
            seconds[name] = 0.0
        depth = [0]
        clock, caller = time.perf_counter, sys._getframe

        def wrapper(*args, **kwargs):
            calls[name] += 1
            boundary = caller(1).f_globals is not home
            if not (boundary or timed):
                result = fn(*args, **kwargs)
            else:
                if boundary:
                    span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                    stack.append(len(spans))
                    spans.append(span)
                depth[0] += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    depth[0] -= 1
                    if timed and not depth[0]:
                        seconds[name] += end - start
                    if boundary:
                        span[1:3] = start, end
                        stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ---- counters read from arguments and results

    def count_kernel(self, args, kwargs, result) -> None:
        """Dense cells and denominator size of each distinct kernel returned."""
        if not isinstance(result, self.kernel_type) or id(result) in self._kernels:
            return
        key = id(result)
        self._kernels[key] = weakref.ref(result, lambda _, k=key: self._kernels.pop(k, None))
        self.counts["chains.dense_cells"] += int(result.num.size)
        bits = int(result.den).bit_length()
        self.counts["chains.den_bits"] = max(self.counts["chains.den_bits"], bits)

    def count_letters(self, args, kwargs, result) -> None:
        """Letters applied by scan_kernel, and those an incremental build needs.

        An incremental build extends the longest recipe already built for
        the same family and theta that is a prefix of the requested one, so
        it applies only the letters past that prefix.
        """
        bound = self.scan_signature.bind(*args, **kwargs).arguments
        recipe = tuple(bound["recipe"])
        built = self._built.setdefault((bound["family"], Fraction(bound["theta"])), [])
        done = max((len(r) for r in built if recipe[: len(r)] == r), default=0)
        built.append(recipe)
        self.counts["chains.letters_applied"] += len(recipe)
        self.counts["chains.letters_useful"] += len(recipe) - done
        self.count_kernel(args, kwargs, result)

    def count_cells(self, args, kwargs, result) -> None:
        self.counts["hecke.left_mult_matrix.cells"] += int(result.size)

    def dump(self, path: str, job: int, main_span: tuple[float, float]) -> None:
        record = {
            "job": job,
            "main": list(main_span),
            "spans": self.spans,
            "calls": self.calls,
            "seconds": self.seconds,
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def install() -> Recorder:
    """Wrap the public functions of every layer, in every namespace holding them."""
    import hecke_metro.cli  # noqa: F401  (imports every layer)
    from hecke_metro import chains

    recorder = Recorder(chains.Kernel, inspect.signature(chains.scan_kernel))
    modules = [sys.modules[f"hecke_metro.{layer}"] for layer in LAYERS]
    after = {
        "chains.scan_kernel": recorder.count_letters,
        "hecke.left_mult_matrix": recorder.count_cells,
    }
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, module in zip(LAYERS, modules):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, type) or not callable(fn):
                continue
            name = f"{layer}.{attr}"
            hook = after.get(name, recorder.count_kernel if layer == "chains" else None)
            wrapper = recorder.wrap(name, fn, vars(module), hook, name in TIMED)
            wrappers[id(fn)] = (fn, wrapper)
    namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "hecke_metro"]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(namespace, attr, wrapper)
    getter = chains.Kernel.matrix.fget
    chains.Kernel.matrix = property(
        recorder.wrap("chains.Kernel.matrix", getter, vars(chains), timed=True),
        doc=getter.__doc__,
    )
    return recorder


def main(argv: list[str]) -> int:
    out, job, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = install()
    import click

    from hecke_metro import cli

    start = time.perf_counter()
    try:
        code = cli.main(cli_args, prog_name="hecke-metro", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    finally:
        recorder.dump(out, job, (start, time.perf_counter()))
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
