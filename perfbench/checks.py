"""Operation counting and output checks for one pass over a workload.

An operation is one output cell of an ``outage`` table (one rate and one
method), one ``density`` or ``ergodic`` table, or one library call.  It
fails if it raised or left its cell empty; failures count toward the
failed share and are not check violations.  A check violation is an
output that is present but wrong, and fails the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

EXACT_TOL = 1e-9  # the exact solver's stated accuracy
DENSITY_MASS_TOL = 5e-4  # trapezoid rule over the CLI's 512-node table
DENSITY_EXACT_REL_ERR = 1e-2  # outage_density_exact's own error estimate
RUN_FALSE_ALARM = 1e-6  # mc-vs-exact false-alarm probability per run


@dataclass
class Outcome:
    """What one request returned in one pass."""

    req: object  # workloads.Request
    latency: float  # seconds
    code: int | None = None  # CLI exit code
    text: str | None = None  # CLI output file
    value: object = None  # library-call result
    error: str | None = None  # exception that escaped the call
    probe_s: float = 0.0  # speed probe time around the request
    start_s: float = 0.0  # start time within its pass


def parse_table(out: Outcome) -> tuple[dict, list[dict]]:
    """(meta, rows) of a CLI output; empty cells read as None."""
    if out.req.fmt == "json":
        doc = json.loads(out.text)
        return doc["meta"], doc["rows"]
    meta, body = {}, []
    for line in out.text.splitlines():
        if line.startswith("# "):
            key, _, raw = line[2:].partition(": ")
            meta[key] = json.loads(raw)
        else:
            body.append(line)
    reader = csv.reader(io.StringIO("\n".join(body)))
    header = next(reader)
    rows = [{k: _cell(v) for k, v in zip(header, rec)} for rec in reader]
    return meta, rows


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text  # a repr'd string such as the ergodic regime


def operations(out: Outcome) -> tuple[int, int]:
    """(attempted, failed) operations of one request."""
    req = out.req
    if req.kind != "cli":
        return 1, int(out.error is not None)
    if req.command != "outage":
        ok = out.error is None and out.code == 0 and bool(out.text) and bool(parse_table(out)[1])
        return 1, int(not ok)
    cells = req.points * len(req.methods)
    if out.error is not None or not out.text:
        return cells, cells
    _, rows = parse_table(out)
    filled = sum(1 for row in rows for m in req.methods if row.get(f"pout_{m}") is not None)
    return cells, cells - filled


def mc_bound(n: int, p: float, alpha: float) -> float:
    """Half-width t with P(|K - n p| >= t) <= alpha for K ~ Binomial(n, p).

    Bernstein's inequality, 2 exp(-t^2 / (2 (n p (1-p) + t/3))) = alpha,
    solved for t; it holds for every n and p, tails included.
    """
    log_term = math.log(2.0 / alpha)
    var = n * p * (1.0 - p)
    return log_term / 3.0 + math.sqrt(log_term * log_term / 9.0 + 2.0 * log_term * var)


def _nondecreasing(points, slack) -> bool:
    ordered = sorted(points)
    return all(b[1] >= a[1] - slack for a, b in zip(ordered, ordered[1:]))


def _trapezoid(xs, ps) -> float:
    return sum(0.5 * (p0 + p1) * (x1 - x0) for x0, x1, p0, p1 in zip(xs, xs[1:], ps, ps[1:]))


def check_pass(outcomes, exact_422, alpha: float) -> tuple[list[str], Counter]:
    """Violations found in one pass, and how many times each check ran.

    ``exact_422(r)`` is the exact outage at (4,2,2), rho 10, the oracle of
    the Monte Carlo check; ``alpha`` is the per-point false-alarm
    probability of that check.
    """
    bad: list[str] = []
    ran: Counter = Counter()
    curves = defaultdict(list)  # (shape, rho, method) -> [(r, p)] for deterministic methods
    pair = {}

    def expect(cond, name, what):
        ran[name] += 1
        if not cond:
            bad.append(f"{name}: {what}")

    for out in outcomes:
        req = out.req
        if req.kind == "hist" and out.error is None:
            mass = float(sum(d * (b - a) for d, a, b in zip(out.value.density, out.value.edges,
                                                           out.value.edges[1:])))
            expect(abs(mass - 1.0) <= 1e-9 and min(out.value.density) >= 0,
                   "hist_mass", f"{req.rid} histogram mass {mass!r}")
        elif req.kind == "moments" and out.error is None:
            mean, var = out.value
            expect(0 < mean < math.log1p(req.rho) and var > 0,
                   "moments_range", f"{req.rid} mean {mean!r} var {var!r}")
        elif req.kind == "density_exact" and out.error is None:
            value, err = out.value
            expect(math.isfinite(value) and value > 0 and err <= DENSITY_EXACT_REL_ERR * value,
                   "density_exact", f"{req.rid} density {value!r} +- {err!r}")
        if req.kind != "cli" or out.error is not None or not out.text:
            continue
        meta, rows = parse_table(out)
        if req.command == "density":
            if not rows:
                continue
            xs = [row["x"] for row in rows]
            ps = [row["p"] for row in rows]
            mass = _trapezoid(xs, ps)
            expect(abs(mass - 1.0) <= DENSITY_MASS_TOL and min(ps) >= 0 and xs == sorted(xs),
                   "density_mass", f"{req.rid} table integrates to {mass!r}")
            continue
        if req.command == "ergodic":
            row = rows[0]
            expect(0 <= row["a0"] < row["b0"] <= 1 and 0 < row["r_erg"] < math.log1p(req.rho)
                   and row["v_erg"] > 0, "ergodic_range", f"{req.rid} {row!r}")
            continue
        for m in req.methods:
            col = [(row["r"], row[f"pout_{m}"]) for row in rows if row[f"pout_{m}"] is not None]
            expect(all(0.0 <= p <= 1.0 for _, p in col) and _nondecreasing(col, EXACT_TOL),
                   "outage_column", f"{req.rid} {m} column not in [0,1] or not nondecreasing in r")
            if m != "mc":
                curves[(req.shape, req.rho, m)].extend(col)
        if "mc" in req.methods:
            for row in rows:
                if row["pout_mc"] is not None:
                    expect(row["ci_lo"] <= row["pout_mc"] <= row["ci_hi"],
                           "mc_interval", f"{req.rid} r={row['r']!r} outside its interval")
        if req.shape == (2, 1, 1) and "exact" in req.methods:
            for row in rows:
                if row["pout_exact"] is not None:
                    flat = math.expm1(row["r"]) / req.rho
                    expect(abs(row["pout_exact"] - flat) <= EXACT_TOL, "flat_law",
                           f"{req.rid} exact {row['pout_exact']!r} vs (e^r-1)/rho {flat!r}")
        if req.shape == (4, 2, 2) and "mc" in req.methods:
            n = req.trials
            for row in rows:
                if row["pout_mc"] is None:
                    continue
                p_ex = exact_422(row["r"])
                dev = abs(round(row["pout_mc"] * n) - n * p_ex)
                expect(dev <= mc_bound(n, p_ex, alpha) + n * EXACT_TOL, "mc_vs_exact",
                       f"{req.rid} r={row['r']!r}: mc {row['pout_mc']!r} vs exact {p_ex!r}")
        if req.tag:
            pair[req.tag] = out.text.replace(f"# workers: {req.workers}\n", "", 1)
    for key, col in curves.items():
        expect(_nondecreasing(col, EXACT_TOL), "outage_across_requests",
               f"{key} values not nondecreasing in r across requests")
    if pair:
        expect(pair.get("pair-w1") is not None and pair.get("pair-w1") == pair.get("pair-w2"),
               "workers_identical", "--workers 1 and --workers 2 outputs differ")
    return bad, ran
