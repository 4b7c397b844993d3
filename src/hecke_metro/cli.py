"""Command-line front end for the deformed-Metropolis toolkit.

Four subcommands drive the library end to end:

``analyze``
    Per-pass chi-square distances for a chosen scan: the closed form from
    the irreducible-block data next to the exact brute-force evolution
    (when the group is small enough to enumerate: matrix-free from the
    identity; with ``--averaged``, every row of K^l derived from the
    identity row by right multiplications), the exact total variation
    distance, and the generic bound ``tv^2 <= chisq / 4``.
    The reductions work on integer numerators, not a Fraction per cell.

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
brute-force columns once enumeration is impossible.

Output files are written atomically: the text goes to a temporary file
in the target directory which is then renamed over the destination, so a
crash never leaves a half-written table; an unwritable directory is
refused while the options are parsed.  The env var ``HECKE_METRO_CAP``
overrides the enumeration cap for all commands; the work on every start
of ``verify`` and ``analyze --averaged`` may cover at most 20 cells per
element of that cap, and past it exact runs are refused with exit 2.

Exit codes: 0 when every check passes, 1 when a verification-style check
fails (a ``verify`` invariant, an ``analyze`` row with ``match=false``,
or a ``sample`` mean more than three standard errors off), 2 for usage
errors (bad flags, theta out of range, cap exceeded in exact mode).
"""

from __future__ import annotations

import csv
import decimal
import functools
import io
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import click

from . import __version__, chains, coxeter, hecke, sampler, spectral
from .coxeter import CapExceededError, GroupFamily

__all__ = ["RunConfig", "main"]


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of the settings shared by the subcommands.

    ``theta_raw`` is kept as the string the user typed ("1/2", "0.5", ...)
    so that output files echo the request verbatim; :attr:`theta` is the
    value that ``mode`` hands the library, and the one range-checked (see
    :func:`_parse_theta`).  Exact mode insists on a group small enough to
    enumerate, because its whole point is that the brute-force columns
    exist and every number is a rational.
    """

    family: GroupFamily
    theta_raw: str
    mode: str = "exact"
    scan: str = "long"
    lmin: int = 1
    lmax: int = 1
    averaged: bool = False
    fmt: str = "json"
    out: str | None = None
    theta: Fraction | float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.scan not in ("long", "short", "random"):
            raise ValueError(f"unknown scan {self.scan!r}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.fmt!r}")
        if not 1 <= self.lmin <= self.lmax:
            raise ValueError("need 1 <= lmin <= lmax")
        object.__setattr__(self, "theta", _parse_theta(self.theta_raw, self.mode))
        if self.mode == "exact" and self.family.order > coxeter.enumeration_cap():
            raise CapExceededError(
                f"|{self.family}| = {self.family.order} exceeds the enumeration "
                f"cap {coxeter.enumeration_cap()}; exact mode needs the full "
                "group (rerun with --mode float or raise HECKE_METRO_CAP)"
            )
        if self.mode == "exact" and self.averaged:
            chains.check_dense_cells(self.family)

    def as_dict(self, command: str) -> dict:
        return {
            "command": command,
            "family": self.family.kind,
            "n": self.family.n,
            "theta": self.theta_raw,
            "mode": self.mode,
            "scan": self.scan,
            "lmin": self.lmin,
            "lmax": self.lmax,
            "averaged": self.averaged,
        }


def _parse_theta(raw: str, mode: str) -> Fraction | float:
    """The theta a run in ``mode`` hands the library, range-checked as such.

    Exact mode uses the rational ``raw``; float mode uses its float, which
    is checked again because a tiny theta underflows to 0.0.  The rational
    is checked first so that converting it cannot overflow.
    """
    try:
        value = coxeter.check_theta(Fraction(raw))
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot parse theta {raw!r}: zero denominator") from exc
    if mode == "exact":
        return value
    try:
        return coxeter.check_theta(float(value))
    except ValueError as exc:
        raise ValueError(f"{exc} (theta {raw} as a float)") from None


def _family(kind: str, n: int) -> GroupFamily:
    try:
        return GroupFamily(kind, n)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _config(**kwargs) -> RunConfig:
    try:
        return RunConfig(**kwargs)
    except (ValueError, CapExceededError) as exc:
        raise click.UsageError(str(exc)) from exc


_PROVENANCE = {
    "tool": "hecke-metro",
    "version": __version__,
    "description": "Metropolis scans on reflection groups via the deformed "
    "group algebra; closed forms come from the irreducible-block data, "
    "oracle columns from exact kernel arithmetic.",
}


# --------------------------------------------------------------------------
# serialization


def _rational_str(x: Fraction) -> str:
    # Decimal prints ints past the interpreter's int-to-str digit limit,
    # which a tiny theta such as 1e-400 exceeds in exact mode
    return f"{decimal.Decimal(x.numerator)}/{decimal.Decimal(x.denominator)}"


def _json_value(x):
    """Fractions as "p/q" strings; floats stay floats; None/bool pass through."""
    if isinstance(x, Fraction):
        return _rational_str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return float(x)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return _rational_str(x)
    return str(x)


def _check_out(ctx, param, out: str | None) -> str | None:
    """Refuse, before any work, an ``--out`` that names no file or lies in a
    missing or unwritable directory."""
    if out is not None:
        directory = os.path.dirname(os.path.abspath(out))
        if not os.path.basename(out):
            raise click.BadParameter(f"cannot write --out {out!r}: it names no file")
        if not os.access(directory, os.W_OK | os.X_OK):
            raise click.BadParameter(f"cannot write --out {out}: {directory} is not writable")
    return out


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces in order, atomically to ``out``, or to stdout when
    no path was given.

    A directory that cannot be written to (missing, no permission) is a
    usage error.
    """
    if out is None:
        for piece in pieces:
            click.echo(piece, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hecke-metro-", text=True)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, out)
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
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _sample_json_pieces(payload: dict) -> Iterator[str]:
    """``payload`` as JSON indented by two spaces, except that each entry of
    ``rows`` is one compact line, in pieces of bounded size.

    The draws are nearly all of a large ``sample``: a line each keeps the
    text about a third of its fully indented size, and the C encoder writes
    it.
    """
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
            yield lead + ",\n    ".join(map(_COMPACT.encode, batch))
            lead = ",\n    "
        yield "\n  ]"
    yield "\n}\n"


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
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
    return math.isclose(float(formula), float(oracle), rel_tol=1e-9, abs_tol=1e-15)


def _scan_letters(cfg: RunConfig) -> tuple[int, ...] | str:
    """The configured scan as chains.evolve_scan and chains.power_sums take it."""
    if cfg.scan == "long":
        return chains.long_recipe(cfg.family)
    if cfg.scan == "short":
        return chains.short_recipe(cfg.family)
    return "random"


def _analyze_rows(cfg: RunConfig) -> list[dict]:
    """Closed form per pass, next to the brute-force oracle within the cap.

    The identity-start oracle evolves the point mass at the identity one
    scan letter at a time (matrix-free); ``--averaged`` needs every start,
    so it derives each row of K^l from the identity row, one length level
    at a time (:func:`chains.power_sums`), within the budget.
    """
    try:
        formulas = [
            spectral.closed_form(cfg.family, cfg.scan, cfg.theta, ell, cfg.averaged)
            for ell in range(cfg.lmin, cfg.lmax + 1)
        ]
    except ValueError as exc:  # no form for this scan
        raise click.UsageError(str(exc)) from exc
    within_cap = cfg.family.order <= coxeter.enumeration_cap()
    if cfg.averaged and cfg.family.order**2 > chains.dense_cell_budget():
        within_cap = False
    rows: list[dict] = []
    sums = dist = pi = None
    if within_cap:
        scan = _scan_letters(cfg)
        if cfg.averaged:
            sums = chains.power_sums(cfg.family, cfg.theta, scan, cfg.lmax)
        else:
            pi = chains.stationary(cfg.family, cfg.theta)
            dist = chains.point_mass(cfg.family, coxeter.identity(cfg.family))
            dist = chains.evolve_scan(cfg.family, cfg.theta, scan, dist, cfg.lmin - 1)
    for ell, formula in zip(range(cfg.lmin, cfg.lmax + 1), formulas):
        oracle = tv = None
        if within_cap:
            if cfg.averaged:
                _, oracle = sums[ell - 1]
            else:
                dist = chains.evolve_scan(cfg.family, cfg.theta, scan, dist, 1)
                oracle = chains.chi_square(dist, pi)
                tv = chains.tv_distance(dist, pi)
        if cfg.mode == "float":
            oracle = None if oracle is None else float(oracle)
            tv = None if tv is None else float(tv)
        rows.append(
            {
                "l": ell,
                "chisq_formula": formula,
                "chisq_oracle": oracle,
                "tv": tv,
                "tv_bound": formula / 4,
                "match": None if oracle is None else _match(formula, oracle, cfg.mode),
            }
        )
    return rows


_ANALYZE_COLUMNS = ["l", "chisq_formula", "chisq_oracle", "tv", "tv_bound", "match"]


# --------------------------------------------------------------------------
# the click group


@click.group()
@click.version_option(__version__, prog_name="hecke-metro")
def main() -> None:
    """Metropolis chains on reflection groups, driven through the deformed
    group algebra: closed-form chi-square decay, invariant verification,
    exact stationary sampling, and bound tables."""


_FAMILY_OPTION = click.option(
    "--family",
    "family_kind",
    type=click.Choice(["symmetric", "hypercube", "dihedral"]),
    required=True,
    help="Reflection-group family.",
)
_N_OPTION = click.option("--n", type=int, required=True, help="Family size parameter.")
_THETA_OPTION = click.option(
    "--theta",
    "theta_raw",
    required=True,
    help='Bias parameter in (0, 1]; a rational string like "1/2" or a decimal.',
)
_OUT_OPTION = click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    callback=_check_out,
    help="Output path (atomic write); stdout when omitted.",
)


@main.command()
@_FAMILY_OPTION
@_N_OPTION
@_THETA_OPTION
@click.option(
    "--scan",
    type=click.Choice(["long", "short", "random"]),
    default="long",
    show_default=True,
    help="Which kernel to analyze.",
)
@click.option("--lmin", type=int, default=1, show_default=True)
@click.option("--lmax", type=int, required=True, help="Last pass count to report.")
@click.option(
    "--averaged",
    is_flag=True,
    help="pi-weighted average over starting states instead of the identity start.",
)
@click.option(
    "--mode",
    type=click.Choice(["exact", "float"]),
    default="exact",
    show_default=True,
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
@_OUT_OPTION
@click.pass_context
def analyze(ctx, family_kind, n, theta_raw, scan, lmin, lmax, averaged, mode, fmt, out):
    """Chi-square decay of a scan: closed form vs. brute force per pass.

    Emits one row per pass count l with the closed-form chi-square, the
    exact brute-force value (when the group is within the enumeration
    cap), the total variation distance, the bound tv^2 <= chisq/4, and a
    match flag.  Exits 1 if any row mismatches.  From the identity the
    oracle applies the scan letters to the start vector (matrix-free);
    with --averaged it runs the identity row through the scan and derives
    every other start's row from it by right multiplications in the
    algebra, on integer numerators.  Exact --averaged is refused (exit 2)
    when its |W|^2 cells exceed 20 x HECKE_METRO_CAP; float --averaged
    then leaves the oracle columns empty.
    """
    cfg = _config(
        family=_family(family_kind, n),
        theta_raw=theta_raw,
        mode=mode,
        scan=scan,
        lmin=lmin,
        lmax=lmax,
        averaged=averaged,
        fmt=fmt,
        out=out,
    )
    try:
        rows = _analyze_rows(cfg)
    except CapExceededError as exc:
        raise click.UsageError(str(exc)) from exc
    if cfg.fmt == "csv":
        pieces = [_csv_text(_ANALYZE_COLUMNS, rows)]
    else:
        pieces = [
            _json_text(
                {
                    "config": cfg.as_dict("analyze"),
                    "rows": [
                        {k: _json_value(row[k]) for k in _ANALYZE_COLUMNS} for row in rows
                    ],
                    "provenance": _PROVENANCE,
                }
            )
        ]
    _emit(pieces, cfg.out)
    if any(row["match"] is False for row in rows):
        ctx.exit(1)


# --------------------------------------------------------------------------
# verify


def _perturb(K: chains.Kernel, x: int) -> chains.Kernel:
    """K with the move out of x, the one entry of row x, swapped onto the diagonal."""
    ((_, value),) = K.num[x].items()
    return chains.Kernel(K.family, K.theta, K.num[:x] + [{x: value}] + K.num[x + 1 :], K.den)


def _verify_checks(family: GroupFamily, theta: Fraction, perturb: bool):
    """(name, thunk) pairs; each thunk returns True on success.

    Checks 1, 3 and 4 read the rows of each K_i off the action tables
    (:func:`chains.generator_rows`), at most two nonzeros a row, so no
    dense kernel is built.  Checks 1 and 2 compare kernel rows with sparse
    products in the algebra; :func:`verify` says why that proves the
    kernels equal left multiplications.  Checks 5 and 6 share one
    three-pass :func:`chains.power_sums_with_crosses`, run when first
    needed; :func:`verify` says where tr(K^4) and tr(K^5) come from.
    ``perturb`` corrupts the identity row of K_1 for check 1 to catch.
    """
    q = 1 / theta
    gens = coxeter.generators(family)
    tables = coxeter.action_tables(family)
    kernels = {
        i: chains.Kernel(family, theta, chains.generator_rows(family, theta, i), theta.denominator)
        for i in gens
    }
    if perturb:
        kernels[1] = _perturb(kernels[1], tables.index[coxeter.identity(family)])
    pi = chains.stationary(family, theta)
    long_scan = chains.long_recipe(family)

    @functools.cache
    def long_sums() -> list[tuple[Fraction, Fraction, Fraction]]:
        return chains.power_sums_with_crosses(family, theta, long_scan, 3)

    def long_traces() -> list[Fraction]:
        """tr(K^1..K^5): three diagonals, then K^2 against itself and K^3."""
        sums = long_sums()
        return [trace for trace, _, _ in sums] + [sums[1][1] + 1, sums[2][2]]

    def row_is(row: dict[int, int], h: hecke.HeckeVector, scale=1) -> bool:
        """Whether ``row``, the nonzero entries of a kernel row, is scale * h
        over the T~ basis."""
        return row == {tables.index[w]: scale * c for w, c in h.coeffs.items()}

    def generator_kernels_match_algebra() -> bool:
        for i in gens:
            for x, w in enumerate(tables.elements):
                image = hecke.tilde_generator_times(i, hecke.tilde_unit(family, q, w))
                if not row_is(kernels[i].num[x], image, kernels[i].den):
                    return False
        return True

    def long_scan_is_squared_longest_element() -> bool:
        tw0 = hecke.tilde_unit(family, q, coxeter.longest_element(family))
        start = chains.point_mass(family, coxeter.identity(family))
        row = chains.evolve_scan(family, theta, long_scan, start, 1)
        nonzero = {y: v for y, v in enumerate(row.num) if v}
        return row_is(nonzero, hecke.product(tw0, tw0), row.den)

    def generator_kernels_preserve_stationary() -> bool:
        return all(chains.check_stationary(kernels[i], pi) for i in gens)

    def generator_kernels_reversible() -> bool:
        return all(chains.check_reversible(kernels[i], pi) for i in gens)

    def averaged_chi_square_equals_trace() -> bool:
        (_, averaged, _), (trace, _, _) = long_sums()[:2]
        return averaged == trace - 1

    def long_scan_traces_match_block_sum() -> bool:
        return all(
            trace == spectral.long_scan_trace(family, theta, m)
            for m, trace in enumerate(long_traces(), start=1)
        )

    def squared_dimensions_sum_to_order() -> bool:
        return sum(rep.d**2 for rep in spectral.irreps(family)) == family.order

    def generic_degrees_sum_to_length_polynomial() -> bool:
        return spectral.sum_d_t(family, q) == coxeter.poincare_polynomial(family, q)

    return [
        ("generator kernels == algebra left multiplication", generator_kernels_match_algebra),
        ("long scan == squared longest element", long_scan_is_squared_longest_element),
        ("generator kernels preserve stationary law", generator_kernels_preserve_stationary),
        ("generator kernels reversible", generator_kernels_reversible),
        ("averaged chi-square == trace identity", averaged_chi_square_equals_trace),
        ("long-scan traces match block sum (m=1..5)", long_scan_traces_match_block_sum),
        ("squared dimensions sum to group order", squared_dimensions_sum_to_order),
        ("generic degrees sum to length polynomial", generic_degrees_sum_to_length_polynomial),
    ]


@main.command()
@_FAMILY_OPTION
@_N_OPTION
@_THETA_OPTION
@click.option(
    "--perturb-kernel",
    is_flag=True,
    hidden=True,
    help="Negative control: corrupt one generator kernel before checking.",
)
@click.pass_context
def verify(ctx, family_kind, n, theta_raw, perturb_kernel):
    """Run the invariant suite for one instance; exit 1 on any failure.

    Theta is always parsed exactly here (any decimal or p/q string is a
    rational), so every check is an exact comparison; the operator checks
    reduce on integer numerators.  Checks 5 and 6 read every row of K,
    K^2 and K^3 for the long scan K, each derived from the identity row
    of its power by right multiplications in the algebra: check 5
    compares the squared rows of K (the averaged chi-square) with the
    diagonal of K^2, check 6 tr(K^1..K^5) with the block sums.  tr(K^1..K^3) are
    diagonals; tr(K^4) is the averaged chi-square of K^2 plus one and
    tr(K^5) the pi-weighted cross sum of K^2 and K^3.  Both rest on the
    long scan being pi-reversible (its recipe reversed is again two
    reduced words of w0), so that sum_{x,y} pi(x) K^j(x,y) K^k(x,y) / pi(y)
    is tr(K^(j+k)).  So groups whose |W|^2 cells exceed
    20 x HECKE_METRO_CAP are refused with exit 2 before anything is
    allocated.

    Checks 1 and 2 read kernel rows, not dense matrices of the algebra.
    Checks 1, 3 and 4 read each row of K_i straight off the action tables
    (at most two nonzeros a row): stationarity and detailed balance of K_i
    come from the same rows as check 1.  Write L(h) for left
    multiplication by h in the T~ basis: L(h)[x, y] is the coefficient of
    T~_y in h T~_x.

    \b
    - Check 1 compares row x of K_i with T~_i T~_x for every i and x,
      so K_i = L(T~_i).
    - L(h) L(g) = L(g h), so a scan kernel, built by the letters that
      build each K_i, is L(h) for h the reversed T~-word of its recipe.
    - L(h) is fixed by its identity row, because h T~_id = h.
    - So check 2, the identity row of the long scan against
      T~_{w0} T~_{w0}, proves that the long scan is L(T~_{w0}^2).
    """
    family = _family(family_kind, n)
    cfg = _config(family=family, theta_raw=theta_raw, mode="exact")
    try:
        chains.check_dense_cells(family)
    except CapExceededError as exc:
        raise click.UsageError(str(exc)) from exc
    checks = _verify_checks(family, cfg.theta, perturb_kernel)
    failures = 0
    for name, thunk in checks:
        try:
            ok = thunk()
        except Exception as exc:  # a crash is a failure, not a crash of the suite
            ok = False
            click.echo(f"FAIL {name} (error: {exc})")
        else:
            click.echo(("PASS " if ok else "FAIL ") + name)
        failures += not ok
    click.echo(f"{len(checks) - failures}/{len(checks)} checks passed")
    if failures:
        ctx.exit(1)


# --------------------------------------------------------------------------
# sample


@main.command()
@_FAMILY_OPTION
@_N_OPTION
@_THETA_OPTION
@click.option(
    "--num-samples", "-N", type=int, default=1000, show_default=True
)
@click.option("--seed", type=click.IntRange(min=0), default=4, show_default=True)
@_OUT_OPTION
@click.pass_context
def sample(ctx, family_kind, n, theta_raw, num_samples, seed, out):
    """Draw exact stationary samples and summarize the fit.

    The summary compares the empirical length mean/variance with the
    closed forms, reports a z-score for the mean, and (when the group is
    within the enumeration cap) the empirical total variation distance.
    Same seed, same output, byte for byte; the JSON gives each draw one
    line.  Exits 1 if the mean lands more than three standard errors from
    the prediction.
    """
    import numpy as np  # the one subcommand that needs it: the draws use its PCG64 stream

    if num_samples <= 0:
        raise click.UsageError("--num-samples must be positive")
    family = _family(family_kind, n)
    # sampling itself never enumerates; only the TV summary needs the cap
    mode = "exact" if family.order <= coxeter.enumeration_cap() else "float"
    cfg = _config(family=family, theta_raw=theta_raw, mode=mode, out=out)
    theta = Fraction(cfg.theta)  # exact moments, for a float theta too
    rng = sampler.random_source(seed)
    draws = [sampler.mallows_sample(family, theta, rng) for _ in range(num_samples)]
    lengths = np.array([coxeter.length(w) for w in draws], dtype=float)
    moments = sampler.length_moments(family, theta)
    predicted_mean = float(moments.mean)
    predicted_variance = float(moments.variance)
    se = math.sqrt(predicted_variance / num_samples)
    mean = float(lengths.mean())
    z = 0.0 if se == 0 else (mean - predicted_mean) / se

    empirical_tv = None
    if family.order <= coxeter.enumeration_cap():
        pi = chains.stationary(family, theta)
        counts = np.zeros(family.order)
        for w in draws:
            counts[chains.element_index(family, w)] += 1
        freqs = counts / num_samples
        empirical_tv = float(
            sum(abs(f - v / pi.den) for f, v in zip(freqs, pi.num)) / 2
        )

    payload = {
        "config": {
            "command": "sample",
            "family": family.kind,
            "n": family.n,
            "theta": theta_raw,
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
    _emit(_sample_json_pieces(payload), cfg.out)
    if abs(z) > 3:
        ctx.exit(1)


# --------------------------------------------------------------------------
# bounds


_BOUND_COLUMNS = ["family", "kind", "n", "theta", "c", "value"]


def _bound_rows(ns: tuple[int, ...], thetas: tuple[float, ...], cs: tuple[float, ...]):
    rows = []
    for n in ns:
        for theta in thetas:
            for c in cs:
                rows.append(
                    {
                        "family": "symmetric",
                        "kind": "short_scan_start",
                        "n": n,
                        "theta": theta,
                        "c": c,
                        "value": spectral.bound_symmetric_scans(n, theta, "short_start", c),
                    }
                )
                rows.append(
                    {
                        "family": "symmetric",
                        "kind": "short_scan_averaged",
                        "n": n,
                        "theta": theta,
                        "c": c,
                        "value": spectral.bound_symmetric_scans(n, theta, "short_avg", c),
                    }
                )
                for scan in ("random", "systematic"):
                    rows.append(
                        {
                            "family": "hypercube",
                            "kind": f"{scan}_scan",
                            "n": n,
                            "theta": theta,
                            "c": c,
                            "value": spectral.bound_hypercube(n, theta, c, scan),
                        }
                    )
                rows.append(
                    {
                        "family": "dihedral",
                        "kind": "random_scan",
                        "n": n,
                        "theta": theta,
                        "c": c,
                        "value": spectral.bound_dihedral_random_scan(
                            n, theta, max(1, round(c))
                        ),
                    }
                )
            for which, kind in (
                ("long_start", "long_scan_start"),
                ("long_avg", "long_scan_averaged"),
            ):
                rows.append(
                    {
                        "family": "symmetric",
                        "kind": kind,
                        "n": n,
                        "theta": theta,
                        "c": 1,
                        "value": spectral.bound_symmetric_scans(n, theta, which),
                    }
                )
            rows.append(
                {
                    "family": "dihedral",
                    "kind": "single_pass",
                    "n": n,
                    "theta": theta,
                    "c": 1,
                    "value": float(spectral.bound_dihedral_long_scan(n, theta)),
                }
            )
            (lead,) = spectral.lead_constant_table([theta], n)
            rows.append(
                {
                    "family": "hypercube",
                    "kind": "lead_constant_random",
                    "n": n,
                    "theta": theta,
                    "c": None,
                    "value": lead.random_scan,
                }
            )
            rows.append(
                {
                    "family": "hypercube",
                    "kind": "lead_constant_systematic",
                    "n": n,
                    "theta": theta,
                    "c": None,
                    "value": lead.systematic_scan,
                }
            )
    return rows


@main.command()
@click.option(
    "--n",
    "ns",
    type=int,
    multiple=True,
    default=(100,),
    show_default=True,
    help="Size parameters (repeatable).",
)
@click.option(
    "--theta",
    "theta_raws",
    multiple=True,
    required=True,
    help="Bias parameters in (0, 1), repeatable; rational strings or decimals.",
)
@click.option(
    "--c",
    "cs",
    type=float,
    multiple=True,
    default=tuple(float(c) for c in range(1, 11)),
    show_default=False,
    help="Slack constants (repeatable, default 1..10).  For dihedral "
    "random-scan rows the value doubles as the pass count.",
)
@_OUT_OPTION
def bounds(ns, theta_raws, cs, out):
    """Closed-form mixing bounds and lead constants over an (n, theta, c) grid.

    Rows with kind long_scan_* and single_pass are one-pass bounds, so
    their c column is fixed at 1; the lead-constant rows have no c at all.
    All values are floats (CSV), largest grids in seconds.
    """
    thetas = []
    for raw in theta_raws:
        try:
            value = _parse_theta(raw, "float")
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        if value == 1:
            raise click.UsageError(
                f"bounds need theta strictly inside (0, 1) (log theta appears); got {raw}"
            )
        thetas.append(value)
    for n in ns:
        if n < 3:
            raise click.UsageError(
                f"bounds need n >= 3 (every grid cell has dihedral rows); got {n}"
            )
    for c in cs:
        if not (math.isfinite(c) and c > 0):
            raise click.UsageError(f"slack constants must be positive and finite, got {c}")
    _emit([_csv_text(_BOUND_COLUMNS, _bound_rows(ns, tuple(thetas), cs))], out)


if __name__ == "__main__":
    main(prog_name="hecke-metro")
