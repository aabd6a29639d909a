"""Command-line front end: outage curves, spectral densities, ergodic summary.

Subcommands:

    outage    sweep a rate grid with any subset of {mc, exact, ld, gauss}
    density   ergodic or rate-constrained eigenvalue density table
    ergodic   support endpoints, ergodic rate, peak variance, E0

Everything is emitted as CSV (metadata in leading ``#`` comment lines,
then an RFC-4180 body) or JSON ({"meta": ..., "rows": ...}), both written
from the same table: a command returns it as columns in header order.
In CSV each metadata line is ``# key: <json>`` and ends in ``\\n``; the
header and rows end in ``\\r\\n``, a None cell is blank, a float is its
shortest round-trip ``repr`` and a str is written verbatim.  In JSON each
row is an object with its keys in header order.  The density table has
--grid-points rows (512 by default); its node map is built once per grid
size.  Identical spec + seed give byte-identical output; the wall-time
metadata field is suppressed under --reproducible.  Rates read and
written are the original channel's, the pinned offset of reduced dims
included, and the ``r`` column echoes the request's own numbers in its
unit.  Every rate a command hands a route is converted and tested once,
by ``_reduced``: less that offset, in nats, it must lie in the library's
open window 0 < r < log(1+rho).  Rates are nats by default, bits with
--bits (inputs and outputs alike; the default and --r-min/--r-max grids
are built in bits too): under --bits the rates r, r_erg, --r, --r-min,
--r-max and --rates are nats over ln 2, the rate variance v_erg is over
(ln 2)^2, and the multiplier k = dE/dr and --k are times ln 2; the rest
(support, density, exponent, e0) has no rate unit.

Exit codes: 0 success, 2 usage error, 1 when a solver failure ended the
command or left no cell past the table's first column, such as a
``density --k`` whose rate lies outside the window.  Usage errors
include a --rho that ``SnrParam`` refuses (not positive and finite, or
with an overflowing reciprocal), with its message; a rate outside the
window, NaN and infinities included; a non-finite --k; --rates given
with --r-min or --r-max; --r or --k given with ``density --kind
ergodic``; and an --output path that cannot be written.  A negative
value may follow its flag space-separated or with ``=``: ``--k -1e-3``
parses as ``--k=-1e-3`` does (see ``_joined``).

A request is parsed from a flag table taken from the parser's own
actions: each subcommand's exact option strings, with the types, choices,
defaults and required flags declared once in ``_build_parser`` (see
``_parsed``).  Whatever the table does not take, such as help, an
abbreviated or unknown flag or a value argparse would refuse, is parsed
by argparse, so every request gets argparse's Namespace, help text or
usage error; argparse runs on no other request.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import re
import stat
import sys
import time
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import chain

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


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, frozenset[str], dict[str, dict[str, argparse.Action]]]:
    """The argument parser, built once per process (parsing leaves it unchanged), its value flags and flag tables.

    A value flag takes one argument, as ``--flag value`` or ``--flag=value``.
    A subcommand's flag table maps each of its store and store_true option
    strings to the Action ``add_argument`` returned for it (see ``_parsed``).
    """
    parser = argparse.ArgumentParser(
        prog="jacobi-mimo",
        description="Outage probability for the Jacobi (truncated Haar unitary) MIMO channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    value_flags = set()
    flags: dict[argparse.ArgumentParser, dict[str, argparse.Action]] = {}

    def arg(p, flag, **kwargs):
        action = p.add_argument(flag, **kwargs)
        if action.nargs is None:
            value_flags.add(flag)
        if (kwargs.get("action", "store"), action.nargs) in (("store", None), ("store_true", 0)):
            flags.setdefault(p, {})[flag] = action

    def channel_args(p):
        arg(p, "--N", type=int, required=True, help="total fiber channels")
        arg(p, "--Nt", type=int, required=True, help="transmit channels")
        arg(p, "--Nr", type=int, required=True, help="receive channels")
        arg(p, "--rho", type=float, required=True, help="total SNR (linear)")
        arg(p, "--format", choices=("csv", "json"), default="csv")
        arg(p, "--output", default=None, help="output path (default stdout)")
        arg(p, "--bits", action="store_true", help="rates in bits instead of nats")
        arg(p, "--reproducible", action="store_true", help="omit wall-time metadata")

    p_out = sub.add_parser("outage", help="outage-vs-rate comparison table")
    channel_args(p_out)
    arg(p_out, "--r-min", type=float, default=None)
    arg(p_out, "--r-max", type=float, default=None)
    arg(p_out, "--points", type=int, default=11, help="grid size; unread with --rates (not refused: "
        "a --points 11 cannot be told from the default)")
    arg(p_out, "--rates", default=None, help="explicit comma-separated rate list, without --r-min/--r-max")
    arg(p_out, "--methods", default="mc,ld,gauss", help=f"comma-separated subset of {tuple(_ROUTES)}")
    arg(p_out, "--trials", type=int, default=100_000)
    arg(p_out, "--seed", type=int, default=0)
    arg(p_out, "--workers", type=int, default=1, help="accepted for compatibility; has no effect")

    p_den = sub.add_parser("density", help="eigenvalue density table")
    channel_args(p_den)
    arg(p_den, "--kind", choices=("ergodic", "constrained"), default="ergodic")
    arg(p_den, "--r", type=float, default=None, help="rate constraint")
    arg(p_den, "--k", type=float, default=None, help="multiplier constraint")
    arg(p_den, "--grid-points", type=int, default=512)

    p_erg = sub.add_parser("ergodic", help="ergodic summary record")
    channel_args(p_erg)

    return parser, frozenset(value_flags), {name: flags[p] for name, p in sub.choices.items()}


# A token that starts as a negative number: -1e-3, -.5, -inf, -inf,0.5
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _joined(argv: list[str], value_flags: frozenset[str]) -> list[str]:
    """``argv`` with each value flag followed by a negative number written ``--flag=value``.

    argparse takes a token that starts with "-" for an option unless it
    reads like -12 or -1.5, so ``--k -1e-3``, ``--k -inf`` or ``--rates
    -inf,0.5`` would leave the flag without its value.  Joined, the request
    parses as its ``=`` form does.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in value_flags and _NEGATIVE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parsed(argv: list[str], tables: dict[str, dict[str, argparse.Action]]) -> argparse.Namespace | None:
    """The Namespace ``parser.parse_args(argv)`` gives, read from a flag table; None leaves ``argv`` to argparse.

    argv[0] names the subcommand, whose table then takes only exact option
    strings: a bare store_true flag, or a value flag as ``--flag=value`` or
    as ``--flag value`` with a value that does not start with "-".  Each
    value goes through its action's ``type`` and ``choices``, the last of a
    repeated flag wins, every required flag must be given, and a str
    default goes through its ``type``, as in argparse.  Anything else is
    argparse's to parse: help, an abbreviation, an unknown flag or one of
    another subcommand, a missing or flag-like value, "--", a store_true
    flag given a value, and a value its type or choices refuse.
    """
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = table.get(token)
        if action is None:
            flag, eq, value = token.partition("=")
            action = table.get(flag) if eq else None
            if action is None or action.nargs is not None or value == "--":
                return None
        elif action.nargs == 0:
            given[action.dest] = action.const
            continue
        else:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    args = argparse.Namespace(command=argv[0])
    for action in table.values():
        if action.dest in given:
            value = given[action.dest]
        elif action.required:
            return None
        elif isinstance(action.default, str) and action.type is not None:
            value = action.type(action.default)
        else:
            value = action.default
        setattr(args, action.dest, value)
    return args


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
    """Parse the channel flags every subcommand shares; the library's refusals are usage errors."""
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
        meta["wall_time_s"] = round(time.perf_counter() - started, 3)
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


def _reduced(ch: Channel, value: float) -> float:
    """A rate as the request states it, in the library's nats less the pinned offset.

    The window test is the library's own, 0 < r < log(1+rho) on the
    reduced rate, so a rate it passes is one the routes accept; NaN and the
    infinities fail it.  A refusal is a usage error that names the rate and
    its interval in the request's unit and, for reduced dims, the reduced
    rate and log(1+rho) too: the stated interval can round so that a refused
    rate looks inside it.
    """
    r = value * ch.unit - ch.offset
    top = math.log1p(ch.snr.rho)
    if not 0.0 < r < top:
        reduced = f"; less the pinned offset it is {r!r} nats, not in (0, {top!r})" if ch.offset else ""
        raise UsageError(f"rate {value!r} outside the achievable open interval "
                         f"({ch.offset / ch.unit!r}, {(ch.offset + top) / ch.unit!r}){reduced}")
    return r


def _rate_grid(args, ch: Channel) -> tuple[list[float], list[float]]:
    """The outage rates, sorted: as the request states them, and reduced by ``_reduced``.

    A grid's ends pass ``_reduced`` before ``np.linspace`` runs, so a
    refused --r-min or --r-max is named as stated (the smaller first), not
    by a grid point, and a non-finite end never reaches ``linspace``.
    """
    if args.rates is not None:
        if args.r_min is not None or args.r_max is not None:
            raise UsageError("--r-min and --r-max do not apply with --rates")
        try:
            stated = [float(tok) for tok in args.rates.split(",")]
        except ValueError as err:
            raise UsageError(f"bad --rates list: {err}") from err
    elif args.points < 1:
        raise UsageError("--points must be >= 1")
    else:
        lo, hi = ch.offset / ch.unit, (ch.offset + math.log1p(ch.snr.rho)) / ch.unit
        r_min = lo + 0.05 * (hi - lo) if args.r_min is None else args.r_min
        r_max = lo + 0.95 * (hi - lo) if args.r_max is None else args.r_max
        for end in sorted((r_min, r_max)):
            _reduced(ch, end)
        stated = np.linspace(r_min, r_max, args.points).tolist()
    stated.sort()
    return stated, [_reduced(ch, value) for value in stated]


def cmd_outage(args, ch: Channel):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("empty method set")
    for m in methods:
        if m not in _ROUTES:
            raise UsageError(f"unknown method {m!r}; choose from {tuple(_ROUTES)}")
    shown, rates = _rate_grid(args, ch)
    try:
        mc = McConfig(dims=ch.dims, snr=ch.snr, trials=args.trials, seed=args.seed)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if args.workers < 1:
        raise UsageError("workers must be >= 1")
    warnings: list[str] = []
    # header order, the request's own rates in r, the rest blank until a route fills it
    columns = dict.fromkeys(_CSV_HEADER, [None] * len(rates)) | {"r": shown}
    for name, (cols, route) in _ROUTES.items():
        if name in methods:
            try:
                columns.update(zip(cols, route(name, ch, mc, rates, shown, warnings)))
            except TermBudgetError as err:
                warnings.append(f"{name}: disabled ({err})")
    fields = {
        "methods": methods,
        "trials": mc.trials,
        "seed": mc.seed,
        "workers": args.workers,
        "warnings": warnings,
    }
    return fields, columns


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
            sol = solve_regime(ch.dims.n0, ch.dims.beta, ch.snr, _reduced(ch, args.r))
        elif not math.isfinite(args.k):
            raise UsageError(f"--k must be finite, got {args.k!r}")
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

    sq, den = _density_nodes(args.grid_points)
    x = a + (b - a) * sq / den
    return fields, {"x": x.tolist(), "p": density(x).tolist()}


@lru_cache(maxsize=4)
def _density_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The density table's node map on ``n`` points, read-only: ``(1+u)**2`` and ``2(1+u*u)``.

    x = a + (b - a) (1+u)^2 / (2(1+u^2)) at u = (2i+1)/n - 1 is the
    tanh(2 atanh(u)) map: it clusters at both edges tightly enough that
    trapezoid over the table resolves inverse-square-root hard-wall
    divergences to ~1e-5 at the default 512 points.  The square stays libm
    pow per node, as Python's ** takes it: at grid sizes that are not powers
    of two it can differ from (1+u)*(1+u) in the last bit.
    """
    u = (2.0 * np.arange(n) + 1.0) / n - 1.0
    sq = np.array([w**2 for w in (1.0 + u).tolist()])
    den = 2.0 * (1.0 + u * u)
    sq.flags.writeable = den.flags.writeable = False
    return sq, den


def cmd_ergodic(args, ch: Channel):
    erg = ergodic_summary(ch.dims.n0, ch.dims.beta, ch.snr)
    row = {"a0": erg.a, "b0": erg.b, **_ergodic_fields(erg, ch), "regime": erg.regime}
    return {}, {key: [value] for key, value in row.items()}


# Each command returns (metadata fields, columns).  The columns are the table,
# {name: list of cells} in header order; main exits 1 when no cell past the
# first column holds a value.
_COMMANDS = {"outage": cmd_outage, "density": cmd_density, "ergodic": cmd_ergodic}


def _json_cells(values: list) -> list[str]:
    """Each cell's JSON text, split from one ``json.dumps`` of the whole column.

    A str cell that holds the ``", "`` separator itself makes the split
    come out long; such a column is encoded cell by cell instead.
    """
    cells = json.dumps(values)[1:-1].split(", ")
    return cells if len(cells) == len(values) else [json.dumps(value) for value in values]


def main(argv=None) -> int:
    parser, value_flags, tables = _build_parser()
    argv = _joined(sys.argv[1:] if argv is None else argv, value_flags)
    args = _parsed(argv, tables)
    if args is None:
        args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        ch = _channel(args)
        if args.output:
            _check_output(args.output)
        fields, columns = _COMMANDS[args.command](args, ch)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    meta = _meta(args, ch, fields, started)
    for warning in meta.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    if args.format == "json":  # one row template filled from each column's one json.dumps
        row = "{%s}" % ", ".join(f"{json.dumps(name)}: %s" for name in columns)
        cells = tuple(chain.from_iterable(zip(*map(_json_cells, columns.values()))))
        rows = ", ".join([row] * (len(cells) // len(columns))) % cells
        text = f'{{"meta": {json.dumps(meta)}, "rows": [{rows}]}}\n'
    else:  # csv writes None blank, a float by repr, a str verbatim
        buf = io.StringIO()
        buf.writelines(f"# {key}: {json.dumps(value)}\n" for key, value in meta.items())
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))
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
    return 0 if any(v is not None for cells in list(columns.values())[1:] for v in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
