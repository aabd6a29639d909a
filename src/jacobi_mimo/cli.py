"""Command-line front end: outage curves, spectral densities, ergodic summary.

Subcommands:

    outage    sweep a rate grid with any subset of {mc, exact, ld, gauss}
    density   ergodic or rate-constrained eigenvalue density table
    ergodic   support endpoints, ergodic rate, peak variance, E0

Everything is emitted as CSV (metadata in leading ``#`` comment lines,
then an RFC-4180 body) or JSON ({"meta": ..., "rows": ...}).  Identical
spec + seed give byte-identical output; the wall-time metadata field is
suppressed under --reproducible.  Rates are nats by default, bits with
--bits (inputs and outputs alike).

Exit codes: 0 success, 2 usage error, 1 when a solver failure left no
usable row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

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

_METHODS = ("mc", "exact", "ld", "gauss")
_CSV_HEADER = ["r", "pout_mc", "ci_lo", "ci_hi", "pout_exact", "pout_ld", "pout_gauss"]
_LN2 = math.log(2.0)


@dataclass
class RunSpec:
    """Parsed, validated invocation of the outage sweep."""

    dims: ChannelDims
    rho: float
    rates: list[float]  # always stored in nats
    methods: list[str]
    trials: int
    seed: int
    workers: int
    fmt: str
    output: str | None
    bits: bool
    reproducible: bool


def _csv_cell(value) -> str:
    """Blank for None, text verbatim, numbers by ``repr`` (round-trip exact)."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


@dataclass
class CurveTable:
    """Rows of values under a CSV header, plus a metadata block."""

    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    header: list[str] = field(default_factory=lambda: list(_CSV_HEADER))

    def write_csv(self, fh):
        for key, value in self.meta.items():
            fh.write(f"# {key}: {json.dumps(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([_csv_cell(row.get(col)) for col in self.header])

    def write_json(self, fh):
        json.dump({"meta": self.meta, "rows": self.rows}, fh, indent=2)
        fh.write("\n")


def _worker_cap(requested: int) -> int:
    cap = os.environ.get("JACOBI_OUTAGE_THREADS")
    if cap:
        try:
            return max(1, min(requested, int(cap)))
        except ValueError:
            pass
    return max(1, requested)


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


def _build_parser() -> argparse.ArgumentParser:
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
        "--methods", default="mc,ld,gauss", help=f"comma-separated subset of {_METHODS}"
    )
    p_out.add_argument("--trials", type=int, default=100_000)
    p_out.add_argument("--seed", type=int, default=0)
    p_out.add_argument("--workers", type=int, default=1)

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


def _normalize_or_usage(args) -> tuple[ChannelDims, SnrParam]:
    try:
        dims = normalize_dims(args.N, args.Nt, args.Nr)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if args.rho <= 0:
        raise UsageError("--rho must be positive")
    return dims, SnrParam(args.rho)


def _rate_window(dims: ChannelDims, snr: SnrParam) -> tuple[float, float]:
    off = float(dims.rate_offset) * math.log1p(snr.rho)
    return off, off + math.log1p(snr.rho)


def _to_nats(value: float, bits: bool) -> float:
    return value * _LN2 if bits else value


def _from_nats(value: float, bits: bool) -> float:
    return value / _LN2 if bits else value


def _parse_outage_spec(args) -> RunSpec:
    dims, snr = _normalize_or_usage(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("empty method set")
    for m in methods:
        if m not in _METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {_METHODS}")
    lo, hi = _rate_window(dims, snr)
    if args.rates is not None:
        try:
            rates = [_to_nats(float(tok), args.bits) for tok in args.rates.split(",")]
        except ValueError as err:
            raise UsageError(f"bad --rates list: {err}") from err
    else:
        if args.points < 1:
            raise UsageError("--points must be >= 1")
        span = hi - lo
        r_min = _to_nats(args.r_min, args.bits) if args.r_min is not None else lo + 0.05 * span
        r_max = _to_nats(args.r_max, args.bits) if args.r_max is not None else lo + 0.95 * span
        if args.points == 1:
            rates = [float(r_min)]
        else:
            rates = [float(v) for v in np.linspace(r_min, r_max, args.points)]
    for r in rates:
        if not lo < r < hi:
            raise UsageError(
                f"rate {_from_nats(r, args.bits)!r} outside the achievable open interval "
                f"({_from_nats(lo, args.bits)!r}, {_from_nats(hi, args.bits)!r})"
            )
    if sorted(rates) != rates:
        rates = sorted(rates)
    try:
        McConfig(dims=dims, snr=snr, trials=args.trials, seed=args.seed, workers=args.workers)
    except ValueError as err:
        raise UsageError(str(err)) from err
    return RunSpec(
        dims=dims,
        rho=snr.rho,
        rates=rates,
        methods=methods,
        trials=args.trials,
        seed=args.seed,
        workers=_worker_cap(args.workers),
        fmt=args.format,
        output=args.output,
        bits=args.bits,
        reproducible=args.reproducible,
    )


def _meta_block(args, dims: ChannelDims, extra: dict) -> dict:
    meta = {
        "tool": "jacobi-mimo",
        "version": __version__,
        "command": args.command,
        "config": {
            "N": args.N,
            "Nt": args.Nt,
            "Nr": args.Nr,
            "rho": args.rho,
            "bits": args.bits,
        },
        "normalized": {
            "Nt": dims.Nt,
            "Nr": dims.Nr,
            "N0": dims.N0,
            "beta": float(dims.beta),
            "n0": float(dims.n0),
            "rate_offset": float(dims.rate_offset),
        },
    }
    meta.update(extra)
    return meta


def cmd_outage(spec: RunSpec, args) -> CurveTable:
    dims = spec.dims
    snr = SnrParam(spec.rho)
    n0, beta = float(dims.n0), float(dims.beta)
    offset = float(dims.rate_offset) * math.log1p(spec.rho)
    started = time.time()
    warnings: list[str] = []

    columns: dict[str, list] = {}

    if "mc" in spec.methods:
        cfg = McConfig(dims=dims, snr=snr, trials=spec.trials, seed=spec.seed, workers=spec.workers)
        ests = outage_curve(cfg, spec.rates)
        low = [r for r, e in zip(spec.rates, ests) if e.p * spec.trials < 10]
        if low:
            warnings.append(
                f"mc: fewer than 10 expected outages at {len(low)} grid point(s); "
                "the tail there belongs to the ld solver"
            )
        columns["pout_mc"] = [e.p for e in ests]
        columns["ci_lo"] = [e.ci_low for e in ests]
        columns["ci_hi"] = [e.ci_high for e in ests]

    if "exact" in spec.methods:
        ecfg = ExactConfig(dims=dims, snr=snr)
        try:
            ecfg.check_caps()
        except TermBudgetError as err:
            warnings.append(f"exact: disabled ({err})")
            columns["pout_exact"] = [None] * len(spec.rates)
        else:
            vals = []
            for r in spec.rates:
                try:
                    vals.append(outage_exact(ecfg, r).p)
                except (ArithmeticError, ValueError) as err:
                    warnings.append(f"exact: r={r!r} failed: {err}")
                    vals.append(None)
            columns["pout_exact"] = vals

    if "ld" in spec.methods:
        vals = []
        for r in spec.rates:
            try:
                vals.append(outage_asymptotic(n0, beta, snr, dims.Nt, r - offset).p)
            except (ArithmeticError, ValueError) as err:
                warnings.append(f"ld: r={r!r} failed: {err}")
                vals.append(None)
        columns["pout_ld"] = vals

    if "gauss" in spec.methods:
        summ = ergodic_summary(n0, beta, snr)
        vals = []
        for r in spec.rates:
            try:
                vals.append(gaussian_outage(summ, dims.Nt, r - offset).p)
            except (ArithmeticError, ValueError) as err:
                warnings.append(f"gauss: r={r!r} failed: {err}")
                vals.append(None)
        columns["pout_gauss"] = vals

    rows = []
    for i, r in enumerate(spec.rates):
        row = {col: None for col in _CSV_HEADER}
        row["r"] = _from_nats(r, spec.bits)
        for col, vals in columns.items():
            row[col] = vals[i]
        rows.append(row)

    extra = {
        "methods": spec.methods,
        "trials": spec.trials,
        "seed": spec.seed,
        "workers": spec.workers,
        "rate_unit": "bits" if spec.bits else "nats",
        "warnings": warnings,
    }
    if not spec.reproducible:
        extra["wall_time_s"] = round(time.time() - started, 3)
    table = CurveTable(rows=rows, meta=_meta_block(args, dims, extra))
    return table


def cmd_density(args) -> CurveTable:
    dims, snr = _normalize_or_usage(args)
    n0, beta = float(dims.n0), float(dims.beta)
    offset = float(dims.rate_offset) * math.log1p(snr.rho)
    if args.grid_points < 2:
        raise UsageError("--grid-points must be >= 2")
    started = time.time()

    if args.kind == "constrained":
        if (args.r is None) == (args.k is None):
            raise UsageError("constrained density needs exactly one of --r or --k")
        if args.r is not None:
            r_nat = _to_nats(args.r, args.bits) - offset
            lo, hi = 0.0, math.log1p(snr.rho)
            if not lo < r_nat < hi:
                raise UsageError("--r outside the achievable open interval")
            sol = solve_regime(n0, beta, snr, r_nat)
        else:
            sol = solve_at_multiplier(n0, beta, snr, args.k)
        a, b = sol.a, sol.b
        density = lambda x: density_at(sol, x)
        extra_meta = {
            "kind": "constrained",
            "regime": sol.regime,
            "support": [a, b],
            "k": sol.k,
            "r": _from_nats(sol.r + offset, args.bits),
            "exponent": sol.exponent,
        }
    else:
        summ = ergodic_summary(n0, beta, snr)
        a, b = summ.a0, summ.b0
        density = lambda x: ergodic_density(n0, beta, x)
        extra_meta = {
            "kind": "ergodic",
            "support": [a, b],
            "r_erg": _from_nats(summ.r_erg + offset, args.bits),
            "v_erg": summ.v_erg,
            "e0": summ.e0,
        }

    n = args.grid_points
    rows = []
    for i in range(n):
        u = (2.0 * i + 1.0) / n - 1.0
        # tanh(2 atanh(u)) node map: clusters at both edges tightly enough
        # that trapezoid over the table resolves inverse-square-root
        # hard-wall divergences to ~1e-5 at the default 512 points
        x = a + (b - a) * (1.0 + u) ** 2 / (2.0 * (1.0 + u * u))
        rows.append({"x": x, "p": density(x)})

    extra_meta["rate_unit"] = "bits" if args.bits else "nats"
    if not args.reproducible:
        extra_meta["wall_time_s"] = round(time.time() - started, 3)
    return CurveTable(rows=rows, meta=_meta_block(args, dims, extra_meta), header=["x", "p"])


def cmd_ergodic(args) -> CurveTable:
    dims, snr = _normalize_or_usage(args)
    n0, beta = float(dims.n0), float(dims.beta)
    offset = float(dims.rate_offset) * math.log1p(snr.rho)
    started = time.time()
    summ = ergodic_summary(n0, beta, snr)
    row = {
        "a0": summ.a0,
        "b0": summ.b0,
        "r_erg": _from_nats(summ.r_erg + offset, args.bits),
        "v_erg": summ.v_erg,
        "e0": summ.e0,
        "regime": summ.regime,
    }
    extra = {"rate_unit": "bits" if args.bits else "nats"}
    if not args.reproducible:
        extra["wall_time_s"] = round(time.time() - started, 3)
    return CurveTable(rows=[row], meta=_meta_block(args, dims, extra), header=list(row))


def _emit(table: CurveTable, fmt: str, output: str | None):
    buf = io.StringIO()
    if fmt == "csv":
        table.write_csv(buf)
    else:
        table.write_json(buf)
    text = buf.getvalue()
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "outage":
            spec = _parse_outage_spec(args)
            table = cmd_outage(spec, args)
            for warning in table.meta.get("warnings", []):
                print(f"warning: {warning}", file=sys.stderr)
            data_cols = [c for c in _CSV_HEADER if c != "r"]
            all_failed = all(
                all(row[c] is None for c in data_cols) for row in table.rows
            )
            _emit(table, spec.fmt, spec.output)
            return 1 if all_failed else 0
        if args.command == "density":
            table = cmd_density(args)
            _emit(table, args.format, args.output)
            return 0
        if args.command == "ergodic":
            table = cmd_ergodic(args)
            _emit(table, args.format, args.output)
            return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
