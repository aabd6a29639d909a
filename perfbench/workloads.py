"""Request lists of the benchmark workloads, generated from a workload seed.

A request is either one in-process ``jacobi_mimo.cli.main([...])``
invocation (``kind == "cli"``) or one public library call for the three
operations that have no CLI (``moments``, ``hist`` for
``eigen_histogram``, ``density_exact`` for ``outage_density_exact``).

The seed sets the Monte Carlo ``--seed`` values and jitters every rate
within +-JITTER of a fixed fraction of the achievable window
(0, log(1+rho)).  The fractions are fixed per workload and stay clear of
the points where the cost changes by a step (exact-solver residue count
floor(Nt*f), Coulomb-gas regime boundaries), so any seed gives the same
cost profile.  This module imports nothing from the program.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("mc_curve", "exact_tail", "ld_sweep")

# Half-width of the rate jitter, as a fraction of the rate window.
JITTER = 0.005

# A pass over any workload's request list takes 5-7 s on the 2-core
# machine the benchmark was defined on.  --seconds / NOMINAL_PASS_S gives
# the number of passes, so every run of a workload does the same work
# however fast the program is.
NOMINAL_PASS_S = 7.5


@dataclass
class Request:
    """One timed request and what the checks need to know about it."""

    rid: str
    kind: str  # "cli", "moments", "hist" or "density_exact"
    shape: tuple[int, int, int]  # (N, Nt, Nr)
    rho: float
    argv: list[str] = field(default_factory=list)
    command: str = ""  # CLI subcommand
    methods: tuple[str, ...] = ()
    rates: tuple[float, ...] = ()  # nats; empty when the CLI builds the grid
    points: int = 0  # rate points of an outage request
    trials: int = 0
    seed: int = 0
    workers: int = 1
    bins: int = 0
    fmt: str = "csv"
    tag: str = ""  # "pair-w1"/"pair-w2" for the worker-invariance pair

    @property
    def shape_key(self) -> str:
        return "n{}_{}_{}".format(*self.shape)


def _channel_argv(command: str, shape, rho: float) -> list[str]:
    n, nt, nr = shape
    return [command, "--N", str(n), "--Nt", str(nt), "--Nr", str(nr), "--rho", repr(rho)]


class _Gen:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.requests: list[Request] = []

    def rate(self, shape, rho, frac) -> float:
        """A rate at ``frac`` of the window (0, log(1+rho)), jittered."""
        n, nt, nr = shape
        if n - nt - nr < 0:
            raise ValueError("benchmark channels need N0 >= 0, so that the window has no offset")
        return (frac + self.rng.uniform(-JITTER, JITTER)) * math.log1p(rho)

    def mc_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def add(self, **kw):
        self.requests.append(Request(rid=f"q{len(self.requests):03d}", **kw))

    def outage(self, shape, rho, fracs, methods=None, trials=0, seed=0, workers=1,
               grid=None, rates=None, reproducible=False, tag=""):
        argv = _channel_argv("outage", shape, rho)
        if grid is not None:
            f_lo, f_hi, points = grid
            argv += ["--r-min", repr(self.rate(shape, rho, f_lo)),
                     "--r-max", repr(self.rate(shape, rho, f_hi)),
                     "--points", str(points)]
            rates = ()
        else:
            if rates is None:
                rates = tuple(self.rate(shape, rho, f) for f in fracs)
            points = len(rates)
            argv += ["--rates", ",".join(repr(r) for r in rates)]
        if methods is not None:
            argv += ["--methods", ",".join(methods)]
        else:
            methods = ("mc", "ld", "gauss")  # the CLI default
        if "mc" in methods:
            argv += ["--trials", str(trials), "--seed", str(seed), "--workers", str(workers)]
        if reproducible:
            argv.append("--reproducible")
        self.add(kind="cli", command="outage", shape=shape, rho=rho, argv=argv,
                 methods=tuple(methods), rates=rates, points=points, trials=trials, seed=seed,
                 workers=workers, tag=tag)

    def density(self, shape, rho, r_frac=None, k=None):
        argv = _channel_argv("density", shape, rho) + ["--kind", "constrained", "--format", "json"]
        if r_frac is not None:
            argv += ["--r", repr(self.rate(shape, rho, r_frac))]
        else:
            argv += ["--k", repr(k * (1.0 + self.rng.uniform(-JITTER, JITTER)))]
        self.add(kind="cli", command="density", shape=shape, rho=rho, argv=argv, fmt="json")

    def ergodic(self, shape, rho):
        self.add(kind="cli", command="ergodic", shape=shape, rho=rho,
                 argv=_channel_argv("ergodic", shape, rho))


def _mc_curve(g: _Gen, toy: bool):
    # Request counts and trial counts place req_ms_tail inside the group of
    # README-shape requests and req_ms_p50 inside the (200,4,4) group, so
    # neither quantile sits on the edge between two cost levels.
    reps = (lambda k: 1) if toy else (lambda k: k)
    trials = (lambda n: 2048) if toy else (lambda n: n)
    for _ in range(reps(6)):
        g.outage((4, 2, 2), 10.0, (0.40, 0.50, 0.60, 0.70, 0.80), methods=("mc",),
                 trials=trials(10_240), seed=g.mc_seed())
    for _ in range(reps(5)):
        # the README example shape, with the CLI's default method set
        g.outage((18, 6, 6), 20.0, (), grid=(0.45, 0.65, 11), trials=trials(12_288), seed=g.mc_seed())
    for _ in range(reps(10)):
        g.outage((200, 4, 4), 20.0, (0.07, 0.09, 0.11, 0.13), methods=("mc",),
                 trials=trials(2_048), seed=g.mc_seed())
    seed = g.mc_seed()
    rates = tuple(g.rate((18, 6, 6), 20.0, f) for f in (0.50, 0.55, 0.60))
    for workers in (1, 2):
        g.outage((18, 6, 6), 20.0, (), rates=rates, methods=("mc",), trials=trials(8_192),
                 seed=seed, workers=workers, reproducible=True, tag=f"pair-w{workers}")
    for _ in range(reps(4)):
        g.add(kind="moments", shape=(24, 8, 8), rho=10.0, trials=trials(4_096), seed=g.mc_seed())
    for _ in range(reps(4)):
        g.add(kind="hist", shape=(48, 16, 16), rho=1.0, trials=trials(1_024), seed=g.mc_seed(),
              bins=16)


# (shape, rho, window fractions) of the single-rate exact,ld requests, from
# the bulk down to P ~ 1e-12; Nt*f stays clear of integers (see above).
_EXACT_POINTS = [
    ((2, 1, 1), 3.0, (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05)),
    ((7, 2, 3), 10.0, (0.62, 0.55, 0.45, 0.38, 0.3, 0.22, 0.15, 0.12, 0.08, 0.04)),
    ((8, 4, 4), 1.0, (0.65, 0.55, 0.45, 0.35, 0.28, 0.2, 0.15, 0.12)),
    ((10, 4, 5), 10.0, (0.55, 0.4, 0.3)),
    ((12, 5, 5), 10.0, (0.33,)),
]


def _exact_tail(g: _Gen, toy: bool):
    for shape, rho, fracs in _EXACT_POINTS:
        if toy and shape[1] > 2:
            continue
        for f in fracs:
            g.outage(shape, rho, (f,), methods=("exact", "ld"))
    for f in (0.6, 0.55, 0.45, 0.4):
        g.add(kind="density_exact", shape=(8, 4, 4), rho=1.0, rates=(g.rate((8, 4, 4), 1.0, f),))


# (shape, rho, window fractions) of the ld_sweep outage requests: short
# grids at rho >= 1 (1-60 ms per point), cheap low-rho points, and the
# (18,6,6) rows at rho < 1 whose points above r_erg the solver fails on.
_LD_POINTS = [
    ((12, 6, 6), 0.01, (0.1, 0.3, 0.5, 0.9)),
    ((12, 6, 6), 1.0, (0.1, 0.3, 0.5, 0.9)),
    ((12, 6, 6), 100.0, (0.1, 0.3, 0.5, 0.9)),
    ((12, 6, 6), 1e4, (0.1, 0.3, 0.5, 0.9)),
    ((18, 6, 6), 0.01, (0.12, 0.3, 0.7, 0.88)),
    ((18, 6, 6), 0.1, (0.12, 0.3, 0.7, 0.88)),
    ((18, 6, 6), 1.0, (0.12, 0.3, 0.5, 0.9)),
    ((18, 6, 6), 10.0, (0.12, 0.3, 0.5, 0.9)),
    ((18, 6, 6), 100.0, (0.12, 0.3, 0.5, 0.9)),
    ((18, 6, 6), 1e4, (0.12, 0.3, 0.5, 0.9)),
    ((12, 4, 8), 0.01, (0.5, 0.7)),
    ((12, 4, 8), 0.1, (0.5, 0.88)),
    ((12, 4, 8), 1.0, (0.3, 0.5, 0.7, 0.9)),
    ((12, 4, 8), 10.0, (0.35, 0.5, 0.7, 0.9)),
    ((12, 4, 8), 100.0, (0.3, 0.5, 0.7, 0.9)),
    ((12, 4, 8), 1e4, (0.3, 0.5, 0.7, 0.9)),
    ((24, 8, 12), 1.0, (0.12, 0.3, 0.5, 0.7, 0.88)),
    ((24, 8, 12), 10.0, (0.12, 0.3, 0.5, 0.7, 0.88)),
    ((24, 8, 12), 100.0, (0.12, 0.3, 0.5, 0.7, 0.88)),
    ((24, 8, 12), 1e4, (0.12, 0.3, 0.5, 0.7, 0.88)),
]
# Low-rho Sab requests: 0.1-0.4 s per point on the defining machine, the
# requests beyond req_ms_tail.  A Sab point's cost jumps erratically with
# r, so each request spans three nearby rates.  Points further out
# (rho = 0.01 at f <= 0.3) cost 1-20 s each and would not fit a run.
_LD_SLOW_POINTS = [
    ((12, 4, 8), 0.1, (0.28, 0.3, 0.32)),
    ((24, 8, 12), 0.1, (0.1, 0.12, 0.14)),
    ((24, 8, 12), 0.1, (0.28, 0.3, 0.32)),
    ((24, 8, 12), 0.1, (0.68, 0.7, 0.72)),
]

_LD_DENSITY_R = [  # constrained density through the outer multiplier root
    ((12, 6, 6), 1.0, 0.1),
    ((12, 6, 6), 1.0, 0.5),
    ((12, 6, 6), 1.0, 0.9),
    ((18, 6, 6), 10.0, 0.8),
    ((12, 4, 8), 10.0, 0.3),
    ((24, 8, 12), 10.0, 0.4),
]
_LD_DENSITY_K = [  # constrained density at a given multiplier (no outer root)
    ((12, 6, 6), 10.0, -5.0),
    ((12, 4, 8), 100.0, 2.0),
    ((24, 8, 12), 1.0, 3.0),
]
_LD_ERGODIC = [((12, 6, 6), 10.0), ((18, 6, 6), 10.0), ((12, 4, 8), 10.0), ((24, 8, 12), 10.0)]


def _ld_sweep(g: _Gen, toy: bool):
    for shape, rho, fracs in _LD_POINTS:
        if toy and rho < 1.0 and shape != (18, 6, 6):
            continue
        g.outage(shape, rho, fracs, methods=("ld", "gauss"))
    for shape, rho, fracs in [] if toy else _LD_SLOW_POINTS:
        g.outage(shape, rho, fracs, methods=("ld", "gauss"))
    for shape, rho, f in _LD_DENSITY_R:
        g.density(shape, rho, r_frac=f)
    for shape, rho, k in _LD_DENSITY_K:
        g.density(shape, rho, k=k)
    for shape, rho in _LD_ERGODIC:
        g.ergodic(shape, rho)


_REQUEST_LISTS = {"mc_curve": _mc_curve, "exact_tail": _exact_tail, "ld_sweep": _ld_sweep}


def build(workload: str, seed: int, toy: bool = False) -> list[Request]:
    """The request list of one pass over ``workload`` for ``seed``.

    ``toy`` shrinks trial counts and drops the slowest shapes, for the
    benchmark's own smoke tests.
    """
    g = _Gen(workload, seed)
    _REQUEST_LISTS[workload](g, toy)
    return g.requests


def warmup_argvs() -> list[list[str]]:
    """One small request per layer, run before the first timed request."""
    return [
        ["outage", "--N", "4", "--Nt", "2", "--Nr", "2", "--rho", "10", "--points", "3",
         "--methods", "mc,exact,ld,gauss", "--trials", "2048", "--seed", "1"],
        ["density", "--N", "9", "--Nt", "3", "--Nr", "3", "--rho", "3", "--kind", "constrained",
         "--r", "0.5", "--format", "json"],
        ["ergodic", "--N", "24", "--Nt", "8", "--Nr", "8", "--rho", "10"],
    ]


def run_warmup(cli_main, tmpdir: str):
    """Run :func:`warmup_argvs` through ``cli_main``, writing into ``tmpdir``."""
    out = os.path.join(tmpdir, "warmup.out")
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in warmup_argvs():
            code = cli_main(argv + ["--output", out])
            if code != 0:
                raise RuntimeError(f"warm-up request {argv} exited with {code}")
