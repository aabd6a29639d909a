"""Command-line front end: outage curves, spectral densities, ergodic summary.

Subcommands:

    outage    sweep a rate grid with any subset of {mc, exact, ld, gauss}
    density   ergodic or rate-constrained eigenvalue density table
    ergodic   support endpoints, ergodic rate, peak variance, E0

Everything is emitted as CSV (metadata in leading ``#`` comment lines,
then an RFC-4180 body) or JSON ({"meta": ..., "rows": ...}).  Identical
spec + seed give byte-identical output; the wall-time metadata field is
suppressed under --reproducible.  Rates read and written are the original
channel's, the pinned offset of reduced dims included; the library's
routes get them less that offset.  Rates are nats by default, bits with
--bits (inputs and outputs alike): under --bits the rates r, r_erg,
--r, --r-min, --r-max and --rates are divided by ln 2, the rate variance
v_erg by (ln 2)^2, and the multiplier k = dE/dr and --k are multiplied
by ln 2; the rest (support, density, exponent, e0) has no rate unit.

Exit codes: 0 success, 2 usage error, 1 when a solver failure left no
usable row, such as a ``density --k`` whose rate lies outside the window.
Usage errors include a non-finite --rho, --r or --k, a --rho whose
reciprocal overflows, --r or --k given with ``density --kind ergodic``,
and an --output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import __version__
from .coulomb import (
    density_at,
    ergodic_density,
    ergodic_summary,
    gaussian_outage,
    outage_asymptotic,
    solve_at_multiplier,
    solve_regime,
)
from .ensemble import ChannelDims, SnrParam, normalize_dims
from .exact import ExactConfig, TermBudgetError, outage_exact
from .montecarlo import McConfig, outage_curve

_LN2 = math.log(2.0)


def _csv_cell(value) -> str:
    """Blank for None, text verbatim, numbers by ``repr`` (round-trip exact)."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _common_channel_args(sub):
    sub.add_argument("--N", type=int, required=True, help="total fiber channels")
    sub.add_argument("--Nt", type=int, required=True, help="transmit channels")
    sub.add_argument("--Nr", type=int, required=True, help="receive channels")
    sub.add_argument("--rho", type=float, required=True, help="total SNR (linear)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, help="output path (default stdout)")
    sub.add_argument("--bits", action="store_true", help="rates in bits instead of nats")
    sub.add_argument(
        "--reproducible", action="store_true", help="omit wall-time metadata"
    )


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="jacobi-mimo",
        description="Outage probability for the Jacobi (truncated Haar unitary) MIMO channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_out = sub.add_parser("outage", help="outage-vs-rate comparison table")
    _common_channel_args(p_out)
    p_out.add_argument("--r-min", type=float, default=None)
    p_out.add_argument("--r-max", type=float, default=None)
    p_out.add_argument("--points", type=int, default=11)
    p_out.add_argument("--rates", default=None, help="explicit comma-separated rate list")
    p_out.add_argument(
        "--methods", default="mc,ld,gauss", help=f"comma-separated subset of {tuple(_ROUTES)}"
    )
    p_out.add_argument("--trials", type=int, default=100_000)
    p_out.add_argument("--seed", type=int, default=0)
    p_out.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")

    p_den = sub.add_parser("density", help="eigenvalue density table")
    _common_channel_args(p_den)
    p_den.add_argument("--kind", choices=("ergodic", "constrained"), default="ergodic")
    p_den.add_argument("--r", type=float, default=None, help="rate constraint")
    p_den.add_argument("--k", type=float, default=None, help="multiplier constraint")
    p_den.add_argument("--grid-points", type=int, default=512)

    p_erg = sub.add_parser("ergodic", help="ergodic summary record")
    _common_channel_args(p_erg)

    return parser


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class Channel:
    """The channel of one request, and the unit (nats or bits) of its rates."""

    dims: ChannelDims
    snr: SnrParam
    offset: float  # nats per channel carried by eigenvalues pinned at 1
    unit: float  # nats per unit of the rates read and written: ln 2 under --bits, else 1


def _channel(args) -> Channel:
    """Parse the channel flags every subcommand shares; bad values are usage errors."""
    for name in ("rho", "r", "k"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value!r}")
    if args.rho <= 0:
        raise UsageError("--rho must be positive")
    try:
        dims = normalize_dims(args.N, args.Nt, args.Nr)
        snr = SnrParam(args.rho)
    except ValueError as err:
        raise UsageError(str(err)) from err
    return Channel(
        dims=dims,
        snr=snr,
        offset=dims.pinned_rate(args.rho),
        unit=_LN2 if args.bits else 1.0,
    )


def _check_output(path: str):
    """Refuse an --output that is a directory or whose parent is not a directory, before any solve.

    The reason is the one the write itself would give: the parent's own
    from ``os.stat`` ("Not a directory" also when a file lies further up
    the path), ENOTDIR when the parent is a file, EISDIR when the path is a
    directory.  Other failures to write, such as permissions or a full
    disk, are reported when the table is written.
    """
    parent = os.path.dirname(path) or "."
    try:
        code = 0 if stat.S_ISDIR(os.stat(parent).st_mode) else errno.ENOTDIR
    except OSError as err:  # the parent is missing, or a file lies further up its path
        code = err.errno
    if not code and os.path.isdir(path):
        code = errno.EISDIR
    if code:
        raise UsageError(f"cannot write --output {path}: {os.strerror(code)}")


def _meta(args, ch: Channel, fields: dict, started: float) -> dict:
    """Request echo, the command's own fields, rate unit, warnings (if any), wall time."""
    meta = {
        "tool": "jacobi-mimo",
        "version": __version__,
        "command": args.command,
        "config": {key: getattr(args, key) for key in ("N", "Nt", "Nr", "rho", "bits")},
        "normalized": {
            "Nt": ch.dims.Nt,
            "Nr": ch.dims.Nr,
            "N0": ch.dims.N0,
            "beta": ch.dims.beta,
            "n0": ch.dims.n0,
            "rate_offset": ch.dims.rate_offset,
        },
    }
    warnings = fields.pop("warnings", None)
    meta.update(fields, rate_unit="bits" if args.bits else "nats")
    if warnings is not None:
        meta["warnings"] = warnings
    if not args.reproducible:
        meta["wall_time_s"] = round(time.time() - started, 3)
    return meta


def _column(make, name: str, ch: Channel, mc: McConfig, rates: list[float], shown: list[float],
            warnings: list[str]):
    """The per-rate route: ``make(ch)`` once, then its estimate's ``p`` at each rate.

    ``make`` may refuse the channel (``TermBudgetError``) before any rate is
    tried.  A failed rate leaves None and a warning that names it as ``shown``
    does; the rest of the column stands.
    """
    estimate = make(ch)
    values = []
    for r, label in zip(rates, shown):
        try:
            values.append(estimate(r).p)
        except (ArithmeticError, ValueError) as err:
            warnings.append(f"{name}: r={label!r} failed: {err}")
            values.append(None)
    return [values]


def _mc_curve(name: str, ch: Channel, mc: McConfig, rates: list[float], shown: list[float],
              warnings: list[str]):
    """The one curve route: a single Monte Carlo pass gives p and its interval at every rate."""
    ests = outage_curve(mc, rates)
    low = sum(e.p * mc.trials < 10 for e in ests)
    if low:
        warnings.append(f"{name}: fewer than 10 expected outages at {low} grid point(s); "
                        "the tail there belongs to the ld solver")
    return [[e.p for e in ests], [e.ci_low for e in ests], [e.ci_high for e in ests]]


# The outage routes in column and warning order: name -> (CSV columns, route).
# Every route takes the same rates, those of the reduced ensemble (the request's
# rates less the pinned offset), and for its warnings the rates as the request
# states them.  A route returns one list per column.  Each looks its solver up by
# name when it runs, so a wrapper patched onto this module's solver names sees the call.
_ROUTES = {
    "mc": (("pout_mc", "ci_lo", "ci_hi"), _mc_curve),
    "exact": (("pout_exact",),
              partial(_column, lambda ch: partial(outage_exact, ExactConfig(dims=ch.dims, snr=ch.snr)))),
    "ld": (("pout_ld",),
           partial(_column, lambda ch: partial(outage_asymptotic, ch.dims, ch.snr))),
    "gauss": (("pout_gauss",),
              partial(_column, lambda ch: partial(gaussian_outage, ch.dims, ch.snr))),
}
_CSV_HEADER = ["r", *(col for cols, _ in _ROUTES.values() for col in cols)]


def _rate_grid(args, ch: Channel) -> list[float]:
    """The outage rates in nats, sorted, each inside the achievable open window."""
    lo = ch.offset
    hi = lo + math.log1p(ch.snr.rho)
    if args.rates is not None:
        try:
            rates = [float(tok) * ch.unit for tok in args.rates.split(",")]
        except ValueError as err:
            raise UsageError(f"bad --rates list: {err}") from err
    elif args.points < 1:
        raise UsageError("--points must be >= 1")
    else:
        r_min = lo + 0.05 * (hi - lo) if args.r_min is None else args.r_min * ch.unit
        r_max = lo + 0.95 * (hi - lo) if args.r_max is None else args.r_max * ch.unit
        rates = [float(v) for v in np.linspace(r_min, r_max, args.points)]
    for r in rates:
        if not lo < r < hi:
            raise UsageError(
                f"rate {r / ch.unit!r} outside the achievable open interval "
                f"({lo / ch.unit!r}, {hi / ch.unit!r})"
            )
    return sorted(rates)


def cmd_outage(args, ch: Channel):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("empty method set")
    for m in methods:
        if m not in _ROUTES:
            raise UsageError(f"unknown method {m!r}; choose from {tuple(_ROUTES)}")
    requested = _rate_grid(args, ch)
    try:
        mc = McConfig(dims=ch.dims, snr=ch.snr, trials=args.trials, seed=args.seed)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if args.workers < 1:
        raise UsageError("workers must be >= 1")
    warnings: list[str] = []
    columns = dict.fromkeys(_CSV_HEADER, [None] * len(requested))  # header order; blank until a route fills it
    shown = columns["r"] = [r / ch.unit for r in requested]
    rates = [r - ch.offset for r in requested]  # the one place the pinned offset leaves a rate
    for name, (cols, route) in _ROUTES.items():
        if name in methods:
            try:
                columns.update(zip(cols, route(name, ch, mc, rates, shown, warnings)))
            except TermBudgetError as err:
                warnings.append(f"{name}: disabled ({err})")
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    usable = any(v is not None for col, vals in columns.items() if col != "r" for v in vals)
    fields = {
        "methods": methods,
        "trials": mc.trials,
        "seed": mc.seed,
        "workers": args.workers,
        "warnings": warnings,
    }
    return fields, _CSV_HEADER, rows, usable


def _ergodic_fields(erg, ch: Channel) -> dict:
    """The fields the ergodic record and table share: r_erg, offset added back, and v_erg in the request's unit; e0."""
    return {"r_erg": (erg.r + ch.offset) / ch.unit, "v_erg": erg.v / ch.unit**2, "e0": erg.e0}


def cmd_density(args, ch: Channel):
    if args.grid_points < 2:
        raise UsageError("--grid-points must be >= 2")
    if args.kind == "constrained":
        if (args.r is None) == (args.k is None):
            raise UsageError("constrained density needs exactly one of --r or --k")
        if args.r is not None:
            r_nat = args.r * ch.unit - ch.offset
            if not 0.0 < r_nat < math.log1p(ch.snr.rho):
                raise UsageError("--r outside the achievable open interval")
            sol = solve_regime(ch.dims.n0, ch.dims.beta, ch.snr, r_nat)
        else:
            sol = solve_at_multiplier(ch.dims.n0, ch.dims.beta, ch.snr, args.k / ch.unit)
        a, b = sol.a, sol.b
        density = lambda x: density_at(sol, x)
        fields = {
            "kind": "constrained",
            "regime": sol.regime,
            "support": [a, b],
            "k": sol.k * ch.unit,
            "r": (sol.r + ch.offset) / ch.unit,
            "exponent": sol.exponent,
        }
    else:
        if args.r is not None or args.k is not None:
            raise UsageError("--r and --k apply only to --kind constrained")
        erg = ergodic_summary(ch.dims.n0, ch.dims.beta, ch.snr)
        a, b = erg.a, erg.b
        density = lambda x: ergodic_density(ch.dims.n0, ch.dims.beta, x)
        fields = {"kind": "ergodic", "support": [a, b], **_ergodic_fields(erg, ch)}

    n = args.grid_points
    u = (2.0 * np.arange(n) + 1.0) / n - 1.0
    # tanh(2 atanh(u)) node map: clusters at both edges tightly enough
    # that trapezoid over the table resolves inverse-square-root
    # hard-wall divergences to ~1e-5 at the default 512 points.  The square
    # stays libm pow per node, as Python's ** takes it: at grid sizes that
    # are not powers of two it can differ from (1+u)*(1+u) in the last bit.
    sq = np.array([w**2 for w in (1.0 + u).tolist()])
    x = a + (b - a) * sq / (2.0 * (1.0 + u * u))
    rows = [{"x": xi, "p": pi} for xi, pi in zip(x.tolist(), density(x).tolist())]
    return fields, ["x", "p"], rows, True


def cmd_ergodic(args, ch: Channel):
    erg = ergodic_summary(ch.dims.n0, ch.dims.beta, ch.snr)
    row = {"a0": erg.a, "b0": erg.b, **_ergodic_fields(erg, ch), "regime": erg.regime}
    return {}, list(row), [row], True


# Each command returns (metadata fields, header, rows, usable); usable is
# False when every data cell is empty, which exits 1.
_COMMANDS = {"outage": cmd_outage, "density": cmd_density, "ergodic": cmd_ergodic}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    try:
        ch = _channel(args)
        if args.output:
            _check_output(args.output)
        fields, header, rows, usable = _COMMANDS[args.command](args, ch)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    meta = _meta(args, ch, fields, started)
    for warning in meta.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    if args.format == "json":
        text = json.dumps({"meta": meta, "rows": rows}) + "\n"
    else:
        buf = io.StringIO()
        buf.writelines(f"# {key}: {json.dumps(value)}\n" for key, value in meta.items())
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([_csv_cell(row[col]) for col in header] for row in rows)
        text = buf.getvalue()
    if args.output:
        try:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write --output {args.output}: {err.strerror or err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if usable else 1


if __name__ == "__main__":
    sys.exit(main())
