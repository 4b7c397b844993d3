"""Command-line front end for the deformed-Metropolis toolkit.

Four subcommands drive the library end to end:

``analyze``
    Per-pass chi-square distances for a chosen scan: the closed form from
    the irreducible-block data next to the exact brute-force evolution
    (when the group is small enough to enumerate: matrix-free from the
    identity; with ``--averaged``, every row of K^l derived from one
    identity row by the scan's own letters), the exact total variation
    distance, and the generic bound ``tv^2 <= chisq / 4``.
    The reductions work on integer numerators, not a Fraction per cell.
    A column is empty where its path cannot run: a scan with no closed
    form (see ``spectral.closed_form``) prints the oracle alone, and the
    run exits 2 only when neither can run.

``verify``
    The invariant suite for one configured instance: generator kernels
    against left multiplication in the deformed algebra, row by row, the
    long scan's identity row against the squared longest element,
    stationarity, detailed balance, the trace identity for the
    pi-averaged chi-square, the long-scan trace spectrum, and the two
    numerical identities satisfied by the block data.  Exit code 1 if
    anything fails.  The operator checks compare integer numerators over
    common denominators with sparse products in the algebra, read the rows
    of the generators ``K_i`` off the action tables, or derive the rows of
    the long scan's powers from its identity row; no dense kernel is
    built.

``sample``
    Draws from the exact stationary sampler, with the empirical length
    moments checked against the closed-form mean and variance (and the
    empirical total variation, when the group fits under the cap).  The
    one subcommand that imports numpy, whose PCG64 stream it draws from.

``bounds``
    Evaluates the closed-form upper bounds and the lead-constant table
    over an ``(n, theta, c)`` grid and emits CSV.

Exact mode keeps every number a :class:`fractions.Fraction` end to end
and serializes rationals as ``"p/q"`` strings, never floats.  Float mode
unlocks formulas that involve cosines (the dihedral random scan) and
groups beyond the enumeration cap, at the price of skipping the
brute-force columns once enumeration is impossible.  Every exact oracle
takes theta as typed, in either mode; only the float closed forms and the
``sample`` draws take its float, which is range-checked too.

Output files are written atomically: the text goes to a temporary file
in the target directory which is then renamed over the destination, so a
crash never leaves a half-written table; an unwritable directory, and
an existing path that is not a regular file, are refused while the
options are parsed.

The cap decisions are the library's: :func:`coxeter.check_order` refuses
a group past the enumeration cap (env var ``HECKE_METRO_CAP``) without
forming its order, and :func:`chains.check_dense_cells` the work on every
start of ``verify`` and ``analyze --averaged`` past 20 cells per element
of that cap.  The command line reads their :class:`CapExceededError`
before any closed form or oracle runs: exact ``analyze`` and ``verify``
exit 2, float ``analyze`` leaves the oracle columns empty (and exits 2
on a scan with no closed form), and ``sample`` leaves out the empirical
total variation.

Start-up pays only for what runs: each layer module, and ``json``,
``fractions`` and ``decimal``, is put in ``sys.modules`` when this module
is imported, but its code runs on first use (:func:`_lazy`).  So
``--version``, ``--help`` and usage errors load no layer, ``analyze``
loads neither ``sampler`` nor ``hecke``, ``bounds`` only ``coxeter`` and
``spectral``, and ``sample`` neither ``spectral`` nor ``hecke`` (nor
``chains`` past the cap).  The layers' records are named tuples, so no
command but ``sample``, whose numpy imports it, loads ``inspect``.

Exit codes: 0 when every check passes, 1 when a verification-style check
fails (a ``verify`` invariant, an ``analyze`` row with ``match=false``,
or a ``sample`` mean more than three standard errors off), 2 for usage
errors (bad flags, theta out of range, cap exceeded in exact mode, a
``HECKE_METRO_CAP`` that is not a nonnegative integer), reported on
stderr as ``Error: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import itertools
import math
import os
import stat
import sys
import tempfile
from collections.abc import Iterable, Iterator

from . import __version__

__all__ = ["main"]


def _lazy(name: str):
    """The module ``name``, whose code runs on first attribute access.

    The stdlib's ``importlib.util.LazyLoader`` recipe, except that a module
    already imported is returned as it is, and that a submodule is also set
    as an attribute of its package, as an import would.  Every module is in
    ``sys.modules`` from here on, so tools that look the layers up there
    find them; ``--help``, ``--version`` and a bad command line run none.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


chains = _lazy(f"{__package__}.chains")
coxeter = _lazy(f"{__package__}.coxeter")
hecke = _lazy(f"{__package__}.hecke")
sampler = _lazy(f"{__package__}.sampler")
spectral = _lazy(f"{__package__}.spectral")
decimal = _lazy("decimal")
fractions = _lazy("fractions")
json = _lazy("json")


# --------------------------------------------------------------------------
# arguments


class UsageError(ValueError):
    """A command line that asks for something the program cannot do;
    :func:`main` prints ``Error: <message>`` and exits 2, as it does on a
    :class:`CapExceededError`.  A ValueError, as ``scripts/witness_demo.py``,
    which shares :func:`_parse_theta`, expects."""


def _parse_theta(raw: str, mode: str) -> fractions.Fraction | float:
    """The theta a run in ``mode`` hands the library, range-checked as such.

    Exact mode uses the rational ``raw``; float mode uses its float, which
    is checked again because a tiny theta underflows to 0.0.  The rational
    is checked first so that converting it cannot overflow.
    """
    try:
        value = coxeter.check_theta(fractions.Fraction(raw))
    except ZeroDivisionError as exc:
        raise UsageError(f"cannot parse theta {raw!r}: zero denominator") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if mode == "exact":
        return value
    try:
        return coxeter.check_theta(float(value))
    except ValueError as exc:
        raise UsageError(f"{exc} (theta {raw} as a float)") from None


def _family(kind: str, n: int) -> coxeter.GroupFamily:
    try:
        return coxeter.GroupFamily(kind, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


_PROVENANCE = {
    "tool": "hecke-metro",
    "version": __version__,
    "description": "Metropolis scans on reflection groups via the deformed "
    "group algebra; closed forms come from the irreducible-block data, "
    "oracle columns from exact kernel arithmetic.",
}


# --------------------------------------------------------------------------
# serialization


def _rational_str(x: fractions.Fraction) -> str:
    # Decimal prints ints past the interpreter's int-to-str digit limit,
    # which a tiny theta such as 1e-400 exceeds in exact mode
    return f"{decimal.Decimal(x.numerator)}/{decimal.Decimal(x.denominator)}"


def _json_value(x):
    """Fractions as "p/q" strings; floats stay floats; None/bool pass through."""
    if isinstance(x, fractions.Fraction):
        return _rational_str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return float(x)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, fractions.Fraction):
        return _rational_str(x)
    return str(x)


def _check_out(out: str) -> str:
    """The type of ``--out``: refuse, while the options are parsed, a path
    that names no file or names a directory, an existing path that is not a
    regular file (a FIFO or a device node, which the atomic rename would
    replace) or cannot be written, or a path in a missing or unwritable
    directory."""
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.basename(out) or os.path.isdir(out):
        raise argparse.ArgumentTypeError(f"cannot write --out {out!r}: it names no file")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"cannot write --out {out}: {directory} is not writable")
    if os.path.exists(out) and not os.path.isfile(out):
        raise argparse.ArgumentTypeError(f"cannot write --out {out}: it is not a regular file")
    if os.path.exists(out) and not os.access(out, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write --out {out}: it is not writable")
    return out


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces in order, atomically to ``out``, or to stdout when
    no path was given.

    A symbolic link is followed, so the file it names is written and the
    link stays.  The file keeps the mode it had, or, if new, gets the mode
    ``open`` would give it under the umask.  A directory that cannot be
    written to (missing, no permission) is a usage error.
    """
    if out is None:
        sys.stdout.writelines(pieces)
        return
    target = os.path.realpath(out)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except OSError:  # a new file, or a path that mkstemp below refuses
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".hecke-metro-", text=True)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# draws of ``sample`` encoded into one piece of output
_ROW_BATCH = 2**12


def _sample_json_pieces(payload: dict) -> Iterator[str]:
    """``payload`` as JSON indented by two spaces, except that each entry of
    ``rows`` is one compact line, in pieces of bounded size.

    The draws are nearly all of a large ``sample``: a line each keeps the
    text about a third of its fully indented size, and the C encoder writes
    it.
    """
    compact = json.JSONEncoder(separators=(",", ":")).encode
    sep = "{\n"
    for key, value in payload.items():
        yield f"{sep}  {json.dumps(key)}: "
        sep = ",\n"
        if key != "rows":
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
            continue
        yield "["
        rows, lead = iter(value), "\n    "
        while batch := list(itertools.islice(rows, _ROW_BATCH)):
            yield lead + ",\n    ".join(map(compact, batch))
            lead = ",\n    "
        yield "\n  ]"
    yield "\n}\n"


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})
    return buf.getvalue()


# --------------------------------------------------------------------------
# analyze


def _match(formula, oracle, mode: str) -> bool:
    if mode == "exact":
        return formula == oracle
    return math.isclose(float(formula), float(oracle), rel_tol=1e-9, abs_tol=sys.float_info.min)


def _float(value: fractions.Fraction) -> float:
    """A nonnegative exact value as a float, ``inf`` past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _analyze_rows(family: coxeter.GroupFamily, args: argparse.Namespace) -> list[dict]:
    """Closed form per pass, next to the brute-force oracle within the cap.

    The identity-start oracle evolves the point mass at the identity one
    scan letter at a time (matrix-free); ``--averaged`` needs every start,
    so it derives each row of K^l from the identity row of the reversed
    scan, one letter per edge of a tree of left descents
    (:func:`chains.power_sums`), within the budget.  The library's gate
    for that oracle runs first: past it exact mode is refused and float
    mode leaves the oracle columns empty.  A scan with no closed form
    leaves the formula columns empty instead, and is refused only past
    the gate.  The oracle runs at the rational theta in both modes; only
    the float closed form takes its float.
    """
    mode, averaged, passes = args.mode, args.averaged, range(args.lmin, args.lmax + 1)
    theta = _parse_theta(args.theta, mode)
    exact = _parse_theta(args.theta, "exact")
    try:
        if averaged:
            chains.check_dense_cells(family)
        else:
            coxeter.check_order(family)
        within_cap = True
    except coxeter.CapExceededError as exc:
        if mode == "exact":
            raise coxeter.CapExceededError(
                f"{exc}; exact mode needs the brute-force oracle (rerun with "
                "--mode float to skip it)"
            ) from exc
        within_cap = False
    try:
        formulas = [
            spectral.closed_form(family, args.scan, theta, ell, averaged) for ell in passes
        ]
    except ValueError as exc:  # no form for this scan: the oracle alone, if it runs
        if not within_cap:
            raise UsageError(str(exc)) from exc
        formulas = [None] * len(passes)
    rows: list[dict] = []
    sums = dist = pi = None
    if within_cap:
        if averaged:
            sums = chains.power_sums(family, exact, args.scan, args.lmax)
        else:
            pi = chains.stationary(family, exact)
            dist = chains.point_mass(family, coxeter.identity(family))
            dist = chains.evolve_scan(family, exact, args.scan, dist, args.lmin - 1)
    for ell, formula in zip(passes, formulas):
        oracle = tv = None
        if within_cap:
            if averaged:
                _, oracle = sums[ell - 1]
            else:
                dist = chains.evolve_scan(family, exact, args.scan, dist, 1)
                oracle = chains.chi_square(dist, pi)
                tv = chains.tv_distance(dist, pi)
        if mode == "float":
            oracle = None if oracle is None else _float(oracle)
            tv = None if tv is None else float(tv)
        rows.append(
            {
                "l": ell,
                "chisq_formula": formula,
                "chisq_oracle": oracle,
                "tv": tv,
                "tv_bound": None if formula is None else formula / 4,
                "match": None if None in (formula, oracle) else _match(formula, oracle, mode),
            }
        )
    return rows


_ANALYZE_COLUMNS = ["l", "chisq_formula", "chisq_oracle", "tv", "tv_bound", "match"]


def analyze(args: argparse.Namespace) -> int:
    """Chi-square decay of a scan: closed form vs. brute force per pass.

    Emits one row per pass count l with the closed-form chi-square, the
    exact brute-force value (when the group is within the enumeration
    cap), the total variation distance, the bound tv^2 <= chisq/4, and a
    match flag.  A scan with no closed form (see spectral.closed_form)
    prints the brute-force columns alone, and is refused (exit 2) past
    the cap.  Exits 1 if any row mismatches.  From the identity the
    oracle applies the scan letters to the start vector (matrix-free);
    with --averaged it runs the identity row through the reversed scan
    and derives every other start's row from it by left multiplications in
    the algebra, on integer numerators.  Exact --averaged is refused (exit 2)
    when its |W|^2 cells exceed 20 x HECKE_METRO_CAP; float --averaged
    then leaves the oracle columns empty.
    """
    family = _family(args.family, args.n)
    if not 1 <= args.lmin <= args.lmax:
        raise UsageError("need 1 <= lmin <= lmax")
    rows = _analyze_rows(family, args)
    if args.fmt == "csv":
        pieces = [_csv_text(_ANALYZE_COLUMNS, rows)]
    else:
        config = {
            "command": "analyze", "family": family.kind, "n": family.n, "theta": args.theta,
            "mode": args.mode, "scan": args.scan, "lmin": args.lmin, "lmax": args.lmax,
            "averaged": args.averaged,
        }
        pieces = [
            _json_text(
                {
                    "config": config,
                    "rows": [
                        {k: _json_value(row[k]) for k in _ANALYZE_COLUMNS} for row in rows
                    ],
                    "provenance": _PROVENANCE,
                }
            )
        ]
    _emit(pieces, args.out)
    return int(any(row["match"] is False for row in rows))


# --------------------------------------------------------------------------
# verify


def _verify_checks(family: coxeter.GroupFamily, theta: fractions.Fraction):
    """(name, thunk) pairs; each thunk returns True on success.

    Checks 1, 3 and 4 read the rows of each K_i off the action tables
    (:func:`chains.generator_rows`), at most two nonzeros a row, so no
    dense kernel is built.  Checks 1 and 2 compare kernel rows with sparse
    products in the algebra; :func:`verify` says why that proves the
    kernels equal left multiplications.  Checks 5 and 6 share one
    three-pass :func:`chains.power_sums`, run when first needed;
    :func:`verify` says where tr(K^4) and tr(K^6) come from.
    """
    q = 1 / theta
    gens = coxeter.generators(family)
    elements = coxeter.enumerate(family)
    kernels = {
        i: chains.Kernel(family, theta, chains.generator_rows(family, theta, i), theta.denominator)
        for i in gens
    }
    pi = chains.stationary(family, theta)

    @functools.cache
    def long_sums() -> list[tuple[fractions.Fraction, fractions.Fraction]]:
        return chains.power_sums(family, theta, "long", 3)

    def long_traces() -> dict[int, fractions.Fraction]:
        """tr(K^m) for m = 1, 2, 3, the diagonals, and m = 4, 6, the squared
        rows of K^2 and K^3."""
        sums = long_sums()
        traces = {m: trace for m, (trace, _) in enumerate(sums, start=1)}
        return traces | {4: sums[1][1] + 1, 6: sums[2][1] + 1}

    def row_is(row: dict[int, int], h: hecke.HeckeVector, scale=1) -> bool:
        """Whether ``row``, the nonzero entries of a kernel row, is scale * h
        over the T~ basis."""
        return row == {coxeter.index(w): scale * c for w, c in h.coeffs.items()}

    def generator_kernels_match_algebra() -> bool:
        for i in gens:
            for x, w in enumerate(elements):
                image = hecke.tilde_generator_times(i, hecke.tilde_unit(family, q, w))
                if not row_is(kernels[i].num[x], image, kernels[i].den):
                    return False
        return True

    def long_scan_is_squared_longest_element() -> bool:
        tw0 = hecke.tilde_unit(family, q, coxeter.longest_element(family))
        start = chains.point_mass(family, coxeter.identity(family))
        row = chains.evolve_scan(family, theta, "long", start, 1)
        nonzero = {y: v for y, v in enumerate(row.num) if v}
        return row_is(nonzero, hecke.product(tw0, tw0), row.den)

    def generator_kernels_preserve_stationary() -> bool:
        return all(chains.check_stationary(kernels[i], pi) for i in gens)

    def generator_kernels_reversible() -> bool:
        return all(chains.check_reversible(kernels[i], pi) for i in gens)

    def averaged_chi_square_equals_trace() -> bool:
        (_, averaged), (trace, _) = long_sums()[:2]
        return averaged == trace - 1

    def long_scan_traces_match_block_sum() -> bool:
        return all(
            trace == spectral.long_scan_trace(family, theta, m)
            for m, trace in long_traces().items()
        )

    def squared_dimensions_sum_to_order() -> bool:
        return sum(rep.d**2 for rep in spectral.irreps(family)) == len(elements)

    def generic_degrees_sum_to_length_polynomial() -> bool:
        return spectral.sum_d_t(family, q) == coxeter.poincare_polynomial(family, q)

    return [
        ("generator kernels == algebra left multiplication", generator_kernels_match_algebra),
        ("long scan == squared longest element", long_scan_is_squared_longest_element),
        ("generator kernels preserve stationary law", generator_kernels_preserve_stationary),
        ("generator kernels reversible", generator_kernels_reversible),
        ("averaged chi-square == trace identity", averaged_chi_square_equals_trace),
        ("long-scan traces match block sum (m=1..4, 6)", long_scan_traces_match_block_sum),
        ("squared dimensions sum to group order", squared_dimensions_sum_to_order),
        ("generic degrees sum to length polynomial", generic_degrees_sum_to_length_polynomial),
    ]


def verify(args: argparse.Namespace) -> int:
    """Run the invariant suite for one instance; exit 1 on any failure.

    Theta is always parsed exactly here (any decimal or p/q string is a
    rational), so every check is an exact comparison; the operator checks
    reduce on integer numerators.  Checks 5 and 6 read every row of K,
    K^2 and K^3 for the long scan K, each derived from an identity row by
    left multiplications in the algebra: check 5
    compares the squared rows of K (the averaged chi-square) with the
    diagonal of K^2, check 6 tr(K^m) for m = 1..4 and 6 with the block
    sums.  tr(K^1..K^3) are diagonals; tr(K^4) and tr(K^6) are the
    averaged chi-squares of K^2 and K^3 plus one.  Both rest on the long
    scan being pi-reversible (its recipe reversed is again two reduced
    words of w0), so that sum_{x,y} pi(x) K^m(x,y)^2 / pi(y) is
    tr(K^(2m)).  So groups whose |W|^2 cells exceed
    20 x HECKE_METRO_CAP are refused with exit 2 before anything is
    allocated.

    Checks 1 and 2 read kernel rows, not dense matrices of the algebra.
    Checks 1, 3 and 4 read each row of K_i straight off the action tables
    (at most two nonzeros a row): stationarity and detailed balance of K_i
    come from the same rows as check 1.  Write L(h) for left
    multiplication by h in the T~ basis: L(h)[x, y] is the coefficient of
    T~_y in h T~_x.

    - Check 1 compares row x of K_i with T~_i T~_x for every i and x,
      so K_i = L(T~_i).
    - L(h) L(g) = L(g h), so a scan kernel, built by the letters that
      build each K_i, is L(h) for h the reversed T~-word of its recipe.
    - L(h) is fixed by its identity row, because h T~_id = h.
    - So check 2, the identity row of the long scan against
      T~_{w0} T~_{w0}, proves that the long scan is L(T~_{w0}^2).
    """
    family = _family(args.family, args.n)
    theta = _parse_theta(args.theta, "exact")
    chains.check_dense_cells(family)
    checks = _verify_checks(family, theta)
    failures = 0
    for name, thunk in checks:
        try:
            ok = thunk()
        except Exception as exc:  # a crash is a failure, not a crash of the suite
            ok = False
            print(f"FAIL {name} (error: {exc})")
        else:
            print(("PASS " if ok else "FAIL ") + name)
        failures += not ok
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return int(failures > 0)


# --------------------------------------------------------------------------
# sample


def sample(args: argparse.Namespace) -> int:
    """Draw exact stationary samples and summarize the fit.

    The summary compares the empirical length mean/variance with the
    closed forms, reports a z-score for the mean, and (when the group is
    within the enumeration cap) the empirical total variation distance.
    Same seed, same output, byte for byte; the JSON gives each draw one
    line.  Exits 1 if the mean lands more than three standard errors from
    the prediction.
    """
    import numpy as np  # the one subcommand that needs it: the draws use its PCG64 stream

    num_samples, seed = args.num_samples, args.seed
    if num_samples <= 0:
        raise UsageError("--num-samples must be positive")
    if seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {seed}")
    family = _family(args.family, args.n)
    # the draws run on theta's float, so that is checked on every group; the
    # moments and the total variation take the rational typed, not the
    # float's binary expansion
    draw_theta = _parse_theta(args.theta, "float")
    theta = _parse_theta(args.theta, "exact")
    try:  # before any draw, so that a malformed cap costs none
        order = coxeter.check_order(family)
    except coxeter.CapExceededError:  # too many elements to tally the draws over
        order = None
    rng = sampler.random_source(seed)
    draws = [sampler.mallows_sample(family, draw_theta, rng) for _ in range(num_samples)]
    lengths = np.array([coxeter.length(w) for w in draws], dtype=float)
    moments = sampler.length_moments(family, theta)
    predicted_mean = float(moments.mean)
    predicted_variance = float(moments.variance)
    se = math.sqrt(predicted_variance / num_samples)
    mean = float(lengths.mean())
    z = 0.0 if se == 0 else (mean - predicted_mean) / se

    if order is None:
        empirical_tv = None
    else:
        pi = chains.stationary(family, theta)
        counts = np.zeros(order)
        for w in draws:
            counts[coxeter.index(w)] += 1
        freqs = counts / num_samples
        empirical_tv = float(
            sum(abs(f - v / pi.den) for f, v in zip(freqs, pi.num)) / 2
        )

    payload = {
        "config": {
            "command": "sample",
            "family": family.kind,
            "n": family.n,
            "theta": args.theta,
            "num_samples": num_samples,
            "seed": seed,
        },
        "summary": {
            "length_mean": mean,
            "length_variance": float(lengths.var(ddof=1)) if num_samples > 1 else 0.0,
            "predicted_mean": predicted_mean,
            "predicted_variance": predicted_variance,
            "mean_z_score": z,
            "empirical_tv": empirical_tv,
        },
        "rows": [list(w.payload) for w in draws],
        "provenance": _PROVENANCE,
    }
    _emit(_sample_json_pieces(payload), args.out)
    return int(abs(z) > 3)


# --------------------------------------------------------------------------
# bounds


_BOUND_COLUMNS = ["family", "kind", "n", "theta", "c", "value"]

# (family, kind, c column, value of (n, theta, c)): a row per c of the grid
# when the c column is "each c"; one-pass bounds fix it at 1, and the lead
# constants have none
_BOUND_KINDS = (
    ("symmetric", "short_scan_start", "each c",
     lambda n, theta, c: spectral.bound_symmetric_scans(n, theta, "short_start", c)),
    ("symmetric", "short_scan_averaged", "each c",
     lambda n, theta, c: spectral.bound_symmetric_scans(n, theta, "short_avg", c)),
    ("hypercube", "random_scan", "each c",
     lambda n, theta, c: spectral.bound_hypercube(n, theta, c, "random")),
    ("hypercube", "systematic_scan", "each c",
     lambda n, theta, c: spectral.bound_hypercube(n, theta, c, "systematic")),
    ("dihedral", "random_scan", "each c",
     lambda n, theta, c: spectral.bound_dihedral_random_scan(n, theta, max(1, round(c)))),
    ("symmetric", "long_scan_start", 1,
     lambda n, theta, c: spectral.bound_symmetric_scans(n, theta, "long_start")),
    ("symmetric", "long_scan_averaged", 1,
     lambda n, theta, c: spectral.bound_symmetric_scans(n, theta, "long_avg")),
    ("dihedral", "single_pass", 1,
     lambda n, theta, c: float(spectral.bound_dihedral_long_scan(n, theta))),
    ("hypercube", "lead_constant_random", None,
     lambda n, theta, c: spectral.lead_constants(n, theta).random_scan),
    ("hypercube", "lead_constant_systematic", None,
     lambda n, theta, c: spectral.lead_constants(n, theta).systematic_scan),
)


def _bound_rows(ns: list[int], thetas: list[float], cs: list[float]):
    """Per (n, theta): the rows of every "each c" kind for each c in turn,
    then one row of each other kind, in the order of ``_BOUND_KINDS``."""
    each = [kind for kind in _BOUND_KINDS if kind[2] == "each c"]
    cells = [(kind, c) for c in cs for kind in each]
    cells += [(kind, kind[2]) for kind in _BOUND_KINDS if kind[2] != "each c"]
    return [
        {"family": family, "kind": kind, "n": n, "theta": theta, "c": c,
         "value": value(n, theta, c)}
        for n, theta in itertools.product(ns, thetas)
        for (family, kind, _, value), c in cells
    ]


def bounds(args: argparse.Namespace) -> int:
    """Closed-form mixing bounds and lead constants over an (n, theta, c) grid.

    Rows with kind long_scan_* and single_pass are one-pass bounds, so
    their c column is fixed at 1; the lead-constant rows have no c at all.
    All values are floats (CSV), largest grids in seconds.  The bounds
    carry n^2 as a float, so an n past about 1.34e154 is refused (exit 2).
    """
    ns = args.n or [100]
    cs = args.c or [float(c) for c in range(1, 11)]
    thetas = []
    for raw in args.theta:
        value = _parse_theta(raw, "float")
        if value == 1:
            raise UsageError(
                f"bounds need theta strictly inside (0, 1) (log theta appears); got {raw}"
            )
        thetas.append(value)
    for n in ns:
        if n < 3:
            raise UsageError(
                f"bounds need n >= 3 (every grid cell has dihedral rows); got {n}"
            )
        if n * n > sys.float_info.max:
            raise UsageError(
                f"bounds need n^2 within the float range, {sys.float_info.max:.4g}; got {n}"
            )
    for c in cs:
        if not (math.isfinite(c) and c > 0):
            raise UsageError(f"slack constants must be positive and finite, got {c}")
    _emit([_csv_text(_BOUND_COLUMNS, _bound_rows(ns, thetas, cs))], args.out)
    return 0


# --------------------------------------------------------------------------
# the parser


class _Parser(argparse.ArgumentParser):
    """``--help`` but no ``-h``, no abbreviated options, docstrings shown as
    written, and errors raised as :class:`UsageError` after the usage line.

    Each parser, a subcommand's too, refuses the arguments it does not
    know, so the usage line shown is that of the parser they were given to.
    """

    def __init__(self, **kwargs) -> None:
        formatter = argparse.RawDescriptionHelpFormatter
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=formatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


_DEFAULT = "[default: %(default)s]"


def _parser(prog: str) -> _Parser:
    parser = _Parser(
        prog=prog,
        description="Metropolis chains on reflection groups, driven through the deformed\n"
        "group algebra: closed-form chi-square decay, invariant verification,\n"
        "exact stationary sampling, and bound tables.",
    )
    parser.add_argument(
        "--version", action="version", help="Show the version and exit.",
        version=f"%(prog)s, version {__version__}",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument(
        "--family", choices=["symmetric", "hypercube", "dihedral"], required=True,
        help="Reflection-group family.",
    )
    instance.add_argument("--n", type=int, required=True, help="Family size parameter.")
    instance.add_argument(
        "--theta", required=True,
        help='Bias parameter in (0, 1]; a rational string like "1/2" or a decimal.',
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--out", type=_check_out, help="Output path (atomic write); stdout when omitted."
    )

    def command(run, *parents: argparse.ArgumentParser) -> _Parser:
        # inspect.cleandoc(run.__doc__), without loading inspect
        first, *rest = run.__doc__.expandtabs().split("\n")
        margin = min((len(line) - len(line.lstrip()) for line in rest if line.strip()), default=0)
        doc = "\n".join([first.lstrip(), *(line[margin:] for line in rest)]).strip("\n")
        sub = commands.add_parser(
            run.__name__, parents=parents, help=doc.splitlines()[0], description=doc
        )
        sub.set_defaults(run=run)
        return sub

    sub = command(analyze, instance, output)
    sub.add_argument(
        "--scan", choices=["long", "short", "random"], default="long",
        help="Which kernel to analyze.  " + _DEFAULT,
    )
    sub.add_argument("--lmin", type=int, default=1, help=_DEFAULT)
    sub.add_argument("--lmax", type=int, required=True, help="Last pass count to report.")
    sub.add_argument(
        "--averaged", action="store_true",
        help="pi-weighted average over starting states instead of the identity start.",
    )
    sub.add_argument("--mode", choices=["exact", "float"], default="exact", help=_DEFAULT)
    sub.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json", help=_DEFAULT)

    command(verify, instance)

    sub = command(sample, instance, output)
    sub.add_argument("--num-samples", "-N", type=int, default=1000, help=_DEFAULT)
    sub.add_argument("--seed", type=int, default=4, help=_DEFAULT)

    sub = command(bounds, output)
    sub.add_argument(
        "--n", type=int, action="append",
        help="Size parameters (repeatable).  [default: 100]",
    )
    sub.add_argument(
        "--theta", action="append", required=True,
        help="Bias parameters in (0, 1), repeatable; rational strings or decimals.",
    )
    sub.add_argument(
        "--c", type=float, action="append",
        help="Slack constants (repeatable, default 1..10).  For dihedral "
        "random-scan rows the value doubles as the pass count.",
    )
    return parser


def main(args=None, prog_name="hecke-metro", standalone_mode=True) -> int:
    """Run the subcommand that ``args`` (default ``sys.argv[1:]``) names.

    The exit code is 0 when every check passes, 1 when one fails and 2 on
    a usage error, printed as ``Error: <message>`` on stderr.  With
    ``standalone_mode`` the process exits with it; otherwise it is returned.
    """
    try:
        parsed = _parser(prog_name).parse_args(args)
        code = parsed.run(parsed)
    except SystemExit as exc:  # --help and --version print and stop
        code = exc.code
    except UsageError as exc:  # apart from the next clause, which loads coxeter
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    except (coxeter.CapExceededError, coxeter.CapSettingError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
