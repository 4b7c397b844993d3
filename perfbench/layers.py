"""Per-layer metrics from the span records that ``tracer.py`` writes, one per job.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1 when the CLI itself made the call.  The layer of a span
is the first component of its name (``chains.evolve`` -> ``chains``).
"""

from __future__ import annotations

# (name, unit, better).  Times are busy seconds summed over the jobs of one
# pass; there is no queue or thread, so no layer waits.  ``<layer>.self_s``
# is span time minus child spans; ``<function>.s`` is the time of every
# outermost call of the function, from inside its module too.
PER_LAYER = [
    ("coxeter.self_s", "s", "lower"),
    ("coxeter.enumerate.s", "s", "lower"),
    ("coxeter.apply_generator.calls", "count", "lower"),
    ("coxeter.length.calls", "count", "lower"),
    ("hecke.self_s", "s", "lower"),
    ("hecke.left_mult_matrix.s", "s", "lower"),
    ("hecke.left_mult_matrix.cells", "count", "lower"),
    ("hecke.tilde_word.s", "s", "lower"),
    ("chains.self_s", "s", "lower"),
    ("chains.scan_kernel.s", "s", "lower"),
    ("chains.random_scan_kernel.s", "s", "lower"),
    ("chains.evolve.s", "s", "lower"),
    ("chains.chi_square.s", "s", "lower"),
    ("chains.kernel_power.s", "s", "lower"),
    ("chains.trace_of_power.s", "s", "lower"),
    ("chains.average_start_chi_square.s", "s", "lower"),
    ("chains.check_reversible.s", "s", "lower"),
    ("chains.Kernel.matrix.s", "s", "lower"),
    ("chains.dense_cells", "count", "lower"),
    ("chains.den_bits", "bits", "lower"),
    ("chains.letters_applied", "count", "lower"),
    ("chains.letters_useful_frac", "fraction", "higher"),
    ("spectral.self_s", "s", "lower"),
    ("spectral.irreps.s", "s", "lower"),
    ("spectral.long_scan_chisq.s", "s", "lower"),
    ("spectral.short_scan_chisq_symmetric.s", "s", "lower"),
    ("spectral.standard_tableaux.calls", "count", "lower"),
    ("spectral.sum_d_t.s", "s", "lower"),
    ("sampler.self_s", "s", "lower"),
    ("sampler.mallows_sample.s", "s", "lower"),
    ("sampler.draws_per_s", "1/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.sympy_import_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

LAYERS = ("coxeter", "hecke", "chains", "spectral", "sampler")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the union of ``intervals`` covers."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    out = {layer: 0.0 for layer in LAYERS}
    for index, (name, start, end, _) in enumerate(spans):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - _covered(
            children.get(index, []), start, end
        )
    return out


def cli_self_time(record: dict) -> float:
    """Time inside ``cli.main`` not covered by any library span."""
    start, end = record["main"]
    top = [(s, e) for _, s, e, parent in record["spans"] if parent == -1]
    return (end - start) - _covered(top, start, end)


def layer_metrics(records: list[dict], output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, summed over its jobs.

    ``records`` are the tracer dumps of the pass's jobs; setup and overhead
    metrics are measured elsewhere and added by the caller.
    """
    selfs = {layer: 0.0 for layer in LAYERS}
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    cli_self = 0.0
    for record in records:
        for layer, value in self_times(record["spans"]).items():
            selfs[layer] = selfs.get(layer, 0.0) + value
        for name, value in record["seconds"].items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in record["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in record["counts"].items():
            if name == "chains.den_bits":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        cli_self += cli_self_time(record)

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest == "self_s" and layer in selfs:
            out[name] = selfs[layer]
        elif rest.endswith(".s"):
            out[name] = seconds.get(name[: -len(".s")], 0.0)
        elif rest.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name in counts:
            out[name] = counts[name]
    applied = counts.get("chains.letters_applied", 0)
    out["chains.letters_useful_frac"] = (
        counts.get("chains.letters_useful", 0) / applied if applied else 0.0
    )
    draw_s = seconds.get("sampler.mallows_sample", 0.0)
    draws = calls.get("sampler.mallows_sample", 0)
    out["sampler.draws_per_s"] = draws / draw_s if draw_s else 0.0
    out["cli.self_s"] = cli_self
    out["cli.output_bytes"] = output_bytes
    return out
