"""jacobi-mimo benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_curve --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
A run measures set-up in fresh interpreters, then sends the workload's
requests from this process as a closed loop with one client: each request
starts when the previous one has returned.  ``--seconds`` fixes the
number of passes over the request list (see workloads.NOMINAL_PASS_S),
so a run does the same work on every commit.  Outputs are checked after
the timed passes.  Times are normalized to a reference machine speed
measured by a fixed probe between requests (see probe() and README.md).

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs four passes, untraced and traced in turn, prints the
per-layer metrics, and fails the run unless the two traced passes give
identical counts.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; a fuller record goes to .perfbench-out/ in the
checkout.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# Two cores: BLAS runs single-threaded, so the one --workers 2 request is
# the only place two threads compute at once.  Set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("JACOBI_OUTAGE_THREADS", None)  # the CLI's worker cap; requests set --workers

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from mpmath import mp, mpf  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
PROBE_ITERATIONS = 200
PROBE_REF_S = 1.2e-3  # the probe's time at the reference speed (fast phase, defining machine)
IMPORT_MODULES = {
    "scipy_stats": "scipy.stats",
    "scipy_optimize": "scipy.optimize",
    "mpmath": "mpmath",
    "numpy": "numpy",
    "jacobi_mimo": "jacobi_mimo",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe() -> float:
    """Seconds a fixed pure-Python kernel (256-bit mpmath arithmetic) takes now.

    The kernel never changes, so PROBE_REF_S / probe() is the machine's
    speed relative to the reference at this moment.
    """
    t0 = time.perf_counter()
    with mp.workprec(256):
        x, c = mpf(1), mpf(1.0001)
        for i in range(PROBE_ITERATIONS):
            x = x * c + mpf(i) / 7
    return time.perf_counter() - t0


def measure_setup(tmpdir: str) -> tuple[float, float]:
    """(seconds, mean adjacent probe) for a fresh interpreter to import the CLI and warm up."""
    before = probe()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), tmpdir],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S, env=_child_env(),
    )
    return float(proc.stdout.split()[-1]), 0.5 * (before + probe())


def import_times_ms() -> dict[str, float]:
    """Cumulative import time of each module in IMPORT_MODULES, from -X importtime.

    A module the program no longer imports reads 0.
    """
    found: dict[str, float] = {}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import jacobi_mimo.cli"],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S, env=_child_env(),
    )
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        found.setdefault(fields[2].strip(), int(fields[1]) / 1000.0)
    return {key: found.get(module, 0.0) for key, module in IMPORT_MODULES.items()}


def load_program():
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("jacobi_mimo")
    importlib.import_module("jacobi_mimo.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"jacobi_mimo imported from {pkg.__file__}, not from {SRC}")
    return pkg


def library_calls(pkg, requests) -> dict:
    """rid -> (module, function name, args) of each library-call request.

    The function is looked up when the request runs, so a traced pass calls
    the wrapped one.
    """
    calls = {}
    for req in requests:
        if req.kind == "cli":
            continue
        dims, snr = pkg.normalize_dims(*req.shape), pkg.SnrParam(req.rho)
        if req.kind == "density_exact":
            calls[req.rid] = (pkg.exact, "outage_density_exact",
                              (pkg.ExactConfig(dims=dims, snr=snr), req.rates[0]))
            continue
        cfg = pkg.McConfig(dims=dims, snr=snr, trials=req.trials, seed=req.seed)
        if req.kind == "moments":
            calls[req.rid] = (pkg.montecarlo, "moments", (cfg,))
        else:
            calls[req.rid] = (pkg.montecarlo, "eigen_histogram", (cfg, req.bins))
    return calls


def run_request(pkg, req, calls, out_path, tr) -> checks.Outcome:
    if req.kind != "cli":
        module, name, args = calls[req.rid]
        t0 = time.perf_counter()
        try:
            value = getattr(module, name)(*args)
        except Exception as exc:  # a failed operation, counted, not fatal
            return checks.Outcome(req, time.perf_counter() - t0, error=repr(exc))
        return checks.Outcome(req, time.perf_counter() - t0, value=value)
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    argv = req.argv + ["--output", out_path]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = tr.run_span("cli.main", pkg.cli.main, argv) if tr else pkg.cli.main(argv)
    except Exception as exc:  # escaped the CLI's own handling; counted as failed
        return checks.Outcome(req, time.perf_counter() - t0, error=repr(exc))
    latency = time.perf_counter() - t0
    text = Path(out_path).read_text() if os.path.exists(out_path) else None
    return checks.Outcome(req, latency, code=code, text=text)


def run_pass(pkg, requests, calls, tmpdir, tr=None):
    """(wall seconds, outcomes) of one closed-loop pass over ``requests``.

    The speed probe runs between consecutive requests (outside their
    timing); each outcome keeps the mean of the probes on either side.
    """
    out_path = os.path.join(tmpdir, "request.out")
    outcomes = []
    t0 = time.perf_counter()
    last = probe()
    for req in requests:
        if tr is not None:
            tr.request = req.rid
        start = time.perf_counter() - t0
        out = run_request(pkg, req, calls, out_path, tr)
        out.start_s = start
        now = probe()
        out.probe_s = 0.5 * (last + now)
        last = now
        outcomes.append(out)
    return time.perf_counter() - t0, outcomes


def run_record(args, pkg) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()},
        "software": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "blas": blas,
            "jacobi_mimo": getattr(pkg, "__version__", "unknown"),
        },
        "threads": {**THREAD_ENV, "JACOBI_OUTAGE_THREADS": "unset", "max_compute_threads": 2},
    }


def normalized(seconds: float, probe_s: float) -> float:
    """``seconds`` at the reference speed."""
    return seconds * PROBE_REF_S / probe_s


def pass_latencies(outcomes) -> list[float]:
    """Normalized latency of every request of one pass."""
    return [normalized(out.latency, out.probe_s) for out in outcomes]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the slowest one.
    """
    ordered = sorted(latencies)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:
        i = len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny requests, for the smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "jacobi_mimo" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'jacobi_mimo'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    requests = workloads.build(args.workload, args.seed, toy=args.toy)
    by_rid = {req.rid: req for req in requests}
    passes = 1 if args.toy else max(1, round(args.seconds / workloads.NOMINAL_PASS_S))

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        if args.trace:
            imports = [import_times_ms() for _ in range(1 if args.toy else IMPORTTIME_REPEATS)]
        else:
            setup = [measure_setup(tmpdir) for _ in range(1 if args.toy else SETUP_REPEATS)]
        pkg = load_program()
        workloads.run_warmup(pkg.cli.main, tmpdir)
        calls = library_calls(pkg, requests)

        # (wall, outcomes, tracer or None) per pass; traced passes alternate
        # with untraced ones so both see the same machine conditions
        runs = []
        for n in range(4 if args.trace else passes):
            tr = tracing.Tracer() if args.trace and n % 2 else None
            if tr:
                tr.install(pkg)
            try:
                runs.append((*run_pass(pkg, requests, calls, tmpdir, tr), tr))
            finally:
                if tr:
                    tr.uninstall()
    tracers = [tr for _, _, tr in runs if tr]

    exact_cache: dict[float, float] = {}
    dims_422, snr_422 = pkg.normalize_dims(4, 2, 2), pkg.SnrParam(10.0)

    def exact_422(r: float) -> float:
        if r not in exact_cache:
            exact_cache[r] = pkg.outage_exact(pkg.ExactConfig(dims=dims_422, snr=snr_422), r).p
        return exact_cache[r]

    mc_points = sum(req.points for req in requests if req.shape == (4, 2, 2) and "mc" in req.methods)
    alpha = checks.RUN_FALSE_ALARM / max(1, mc_points * len(runs))
    violations, ran = [], Counter()
    attempted = failed = 0
    for _, outcomes, _ in runs:
        bad, count = checks.check_pass(outcomes, exact_422, alpha)
        violations += bad
        ran.update(count)
        for out in outcomes:
            a, f = checks.operations(out)
            attempted += a
            failed += f

    record = run_record(args, pkg)
    record["passes"] = [{"wall_s": wall, "traced": tr is not None} for wall, _, tr in runs]
    record["requests"] = [
        {"rid": req.rid, "kind": req.kind, "argv": req.argv, "shape": req.shape, "rho": req.rho,
         "latency_s": [outcomes[i].latency for _, outcomes, _ in runs],
         "probe_s": [outcomes[i].probe_s for _, outcomes, _ in runs],
         "start_s": [outcomes[i].start_s for _, outcomes, _ in runs],
         "error": [outcomes[i].error for _, outcomes, _ in runs if outcomes[i].error],
         "operations": checks.operations(runs[0][1][i])}
        for i, req in enumerate(requests)
    ]
    untraced = [pass_latencies(outcomes) for _, outcomes, tr in runs if tr is None]
    latencies = [x for lat in untraced for x in lat]
    tail_s, tail_pct = tail(latencies)
    metrics: dict[str, float] = {}
    if args.trace:
        per_pass = [
            tracing.layer_metrics(
                tr, by_rid, {out.req.rid: normalized(1.0, out.probe_s) for out in outcomes},
                sum(pass_latencies(outcomes)))
            for _, outcomes, tr in runs if tr
        ]
        for name in per_pass[0]:
            metrics[name] = statistics.fmean(p[name] for p in per_pass)
        for key in IMPORT_MODULES:
            metrics[f"setup.import_ms.{key}"] = statistics.median(t[key] for t in imports)
        traced = [sum(pass_latencies(outcomes)) for _, outcomes, tr in runs if tr]
        metrics["trace.overhead_frac"] = sum(traced) / sum(map(sum, untraced)) - 1.0
        metrics["fail_frac"] = failed / attempted
        counts = [tracing.exact_counts(tr) for tr in tracers]
        ran["exact_counts_repeat"] += 1
        if counts[0] != counts[1]:
            violations.append(f"exact_counts_repeat: traced passes disagree: {counts}")
        record["exact_counts"] = counts
        record["missing_wraps"] = tracers[0].missing
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_path, "w") as fh:
            for n, tr in enumerate(tracers):
                for span in tr.spans:
                    fh.write(json.dumps({"pass": n, **span.to_dict()}) + "\n")
        record["spans_file"] = spans_path.name
    else:
        metrics = {
            "setup_s": statistics.median(normalized(sec, p) for sec, p in setup),
            "wall_s": statistics.median(map(sum, untraced)),
            "req_ms_p50": 1e3 * statistics.median(latencies),
            "req_ms_tail": 1e3 * tail_s,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_s_samples"] = setup
    record["req_ms_tail"] = {"percentile": tail_pct, "samples": len(latencies)}
    record["fail_frac"] = failed / attempted
    record["checks"] = {"ran": dict(ran), "violations": violations}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics)) + sorted(set(metrics) - set(units))
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on: {missing}")
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(f"checks: {json.dumps(dict(sorted(ran.items())))}")
    for line in violations:
        print(f"violation: {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
