"""Smoke tests of the benchmark at toy size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import binom

import checks
from workloads import Request

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Checks each workload must run at least once.
EXPECTED_CHECKS = {
    "mc_curve": {"outage_column", "mc_interval", "mc_vs_exact", "workers_identical", "hist_mass",
                 "moments_range"},
    "exact_tail": {"outage_column", "outage_across_requests", "flat_law", "density_exact"},
    "ld_sweep": {"outage_column", "outage_across_requests", "density_mass", "ergodic_range"},
}


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_metric_and_runs_the_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    ran = json.loads(next(line for line in lines if line.startswith("checks: "))[len("checks: "):])
    assert EXPECTED_CHECKS[workload] <= set(ran)
    if trace:
        assert ran["exact_counts_repeat"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "ld_sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _csv_outcome(req, rows, meta_workers=None):
    head = [f"# workers: {meta_workers}"] if meta_workers is not None else []
    body = ["r,pout_mc,ci_lo,ci_hi,pout_exact,pout_ld,pout_gauss"]
    body += [",".join("" if v is None else repr(v) for v in row) for row in rows]
    return checks.Outcome(req, 0.01, code=0, text="\n".join(head + body) + "\n")


def test_violations_are_reported():
    flat = Request(rid="a", kind="cli", command="outage", shape=(2, 1, 1), rho=3.0,
                   methods=("exact",), points=2)
    wrong_flat = _csv_outcome(flat, [(0.5, None, None, None, 0.3, None, None),
                                     (0.9, None, None, None, 0.2, None, None)])
    density = Request(rid="b", kind="cli", command="density", shape=(9, 3, 3), rho=3.0, fmt="json")
    half_mass = checks.Outcome(density, 0.01, code=0, text=json.dumps(
        {"meta": {}, "rows": [{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0.5}]}))
    pair = [Request(rid=f"p{w}", kind="cli", command="outage", shape=(18, 6, 6), rho=20.0,
                    methods=("mc",), points=1, trials=10, workers=w, tag=f"pair-w{w}") for w in (1, 2)]
    differ = [_csv_outcome(req, [(1.5, p, 0.0, 1.0, None, None, None)], req.workers)
              for req, p in zip(pair, (0.1, 0.2))]
    bad, ran = checks.check_pass([wrong_flat, half_mass, *differ], lambda r: 0.5, 1e-9)
    names = {line.split(":", 1)[0] for line in bad}
    assert {"flat_law", "outage_column", "density_mass", "workers_identical"} <= names


def test_failed_cells_are_counted_not_flagged():
    req = Request(rid="c", kind="cli", command="outage", shape=(18, 6, 6), rho=0.01,
                  methods=("ld", "gauss"), points=2)
    out = _csv_outcome(req, [(0.001, None, None, None, None, 0.1, 0.2),
                             (0.008, None, None, None, None, None, 0.9)])
    assert checks.operations(out) == (4, 1)
    assert checks.check_pass([out], lambda r: 0.5, 1e-9)[0] == []


@pytest.mark.parametrize("n,p", [(10_240, 0.5), (10_240, 0.01), (10_240, 1e-4), (2_048, 0.3)])
def test_mc_bound_false_alarm_rate(n, p):
    alpha = 1e-9
    t = checks.mc_bound(n, p, alpha)
    lo, hi = math.ceil(n * p - t), math.floor(n * p + t)
    assert binom.cdf(lo - 1, n, p) + binom.sf(hi, n, p) <= alpha
