"""Spans for the traced run, recorded by wrapping the program's public functions.

The wrappers are installed from the benchmark's side only: module
attributes are replaced for the duration of a traced pass and restored
afterwards, so no file of the program changes.  Three kinds of wrapper:

* span    - one record per call: name, start, end, parent span, request
            id, whether it raised, and a few attributes (trial count,
            exact term count, Coulomb-gas regime of the returned solution);
* leaf    - hot inner functions (``g_closed``, ``f_residue``,
            ``elementary_symmetric``) are called up to millions of times, so
            their calls and time are summed into the enclosing span instead
            of getting a record each;
* counter - a plain call count, thread-safe (Monte Carlo blocks run on
            worker threads).

A span's self time is its duration minus its child spans and leaf time.
Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, kind, span name); names follow "<layer>.<function>".
_LIBRARY_WRAPS = [
    ("coulomb", "solve_regime", "span", "coulomb.solve_regime"),
    ("coulomb", "solve_at_multiplier", "span", "coulomb.solve_at_multiplier"),
    ("coulomb", "g_closed", "leaf", "specfun.g_closed"),
    ("exact", "outage_exact", "span", "exact.outage_exact"),
    ("exact", "outage_density_exact", "span", "exact.outage_density_exact"),
    ("exact", "f_residue", "leaf", "exact.f_residue"),
    ("exact", "elementary_symmetric", "leaf", "specfun.elementary_symmetric"),
    ("montecarlo", "moments", "span", "montecarlo.moments"),
    ("montecarlo", "eigen_histogram", "span", "montecarlo.eigen_histogram"),
    ("montecarlo", "_block_eigenvalues", "counter", "montecarlo.blocks"),
]
_SOLVER_MODULES = ("montecarlo", "exact", "coulomb")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "error", "attrs", "leaf")

    def __init__(self, sid, name, parent, request):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.error = False
        self.attrs = {}
        self.leaf = {}  # leaf name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _attrs(args, result) -> dict:
    out = {}
    cfg = args[0] if args else None
    if hasattr(cfg, "term_count"):
        out["terms"] = cfg.term_count()
    regime = getattr(result, "regime", None)
    if regime is not None:
        out["regime"] = regime
    return out


class Tracer:
    """Records the spans of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root_leaf: dict = {}
        self.counters: Counter = Counter()
        self.request: str | None = None
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, stack[-1].sid if stack else -1, self.request)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def run_span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name`` (a request's root)."""
        span = self._open(name)
        try:
            return fn(*args)
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
                span.attrs = _attrs(args, result)

        return wrapper

    def _leaf_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack = self._stack()
                agg = stack[-1].leaf if stack else self.root_leaf
                cell = agg.get(name)
                if cell is None:
                    agg[name] = [1, dt]
                else:
                    cell[0] += 1
                    cell[1] += dt

        return wrapper

    def _counter_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, kind, name):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        make = {"span": self._span_wrapper, "leaf": self._leaf_wrapper,
                "counter": self._counter_wrapper}[kind]
        setattr(module, attr, make(name, original))
        self._saved.append((module, attr, original))

    def install(self, package):
        """Wrap the solver functions ``cli`` imports, plus the library boundaries."""
        cli = package.cli
        solver_modules = {f"{package.__name__}.{m}" for m in _SOLVER_MODULES}
        for attr, obj in sorted(vars(cli).items()):
            module = getattr(obj, "__module__", None)
            if callable(obj) and not isinstance(obj, type) and module in solver_modules:
                self._patch(cli, attr, "span", f"{module.rsplit('.', 1)[1]}.{attr}")
        for mod_name, attr, kind, name in _LIBRARY_WRAPS:
            self._patch(getattr(package, mod_name), attr, kind, name)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_counts(tr: Tracer) -> dict[str, int]:
    """Counts that must repeat exactly between two traced passes on one seed."""
    names = Counter(s.name for s in tr.spans)
    leaf = Counter()
    for agg in [s.leaf for s in tr.spans] + [tr.root_leaf]:
        for name, (calls, _) in agg.items():
            leaf[name] += calls
    return {
        "exact.terms": sum(s.attrs.get("terms", 0) for s in tr.spans if s.name == "exact.outage_exact"),
        "exact.outage_exact_calls": names["exact.outage_exact"],
        "exact.f_residue_calls": leaf["exact.f_residue"],
        "coulomb.solve_at_multiplier_calls": names["coulomb.solve_at_multiplier"],
        "coulomb.outage_asymptotic_calls": names["coulomb.outage_asymptotic"],
        "specfun.g_closed_calls": leaf["specfun.g_closed"],
        "specfun.elementary_symmetric_calls": leaf["specfun.elementary_symmetric"],
        "montecarlo.blocks": tr.counters["montecarlo.blocks"],
    }


def layer_metrics(tr: Tracer, requests: dict, scale: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Span times are multiplied by ``scale[request id]``, the speed
    normalization of the request they belong to; ``wall`` is the pass's
    normalized total.  A metric whose layer did no work reads 0.
    """
    spans = tr.spans

    def dur(s) -> float:
        return s.duration * scale[s.request]

    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def under(s, name) -> bool:
        while s is not None:
            if s.name == name:
                return True
            s = spans[s.parent] if s.parent >= 0 else None
        return False

    def from_cli(s) -> bool:
        return s.parent >= 0 and spans[s.parent].name == "cli.main"

    def leaf_total(leaf_name, within=None) -> tuple[int, float]:
        """(calls, normalized seconds) of a leaf, counting only spans under ``within`` if given."""
        calls, secs = 0, 0.0
        for s in spans:
            cell = s.leaf.get(leaf_name)
            if cell and (within is None or under(s, within)):
                calls += cell[0]
                secs += cell[1] * scale[s.request]
        return calls, secs

    def busy(layer):
        top = 0.0
        for s in spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p >= 0 and spans[p].layer != layer:
                p = spans[p].parent
            if p < 0:
                top += dur(s)
        return top

    def per_trial_us(spans_):
        trials = sum(requests[s.request].trials for s in spans_)
        return 1e6 * _ratio(sum(dur(s) for s in spans_), trials)

    m: dict[str, float] = {}

    cli_self = [
        dur(s) - sum(dur(c) for c in children[s.sid]) - scale[s.request] * sum(v[1] for v in s.leaf.values())
        for s in named("cli.main")
    ]
    m["cli.self_ms"] = 1e3 * statistics.median(cli_self) if cli_self else 0.0

    curves = named("montecarlo.outage_curve")
    for key in ("n4_2_2", "n18_6_6", "n200_4_4"):
        m[f"montecarlo.us_per_trial.{key}"] = per_trial_us(
            [s for s in curves if requests[s.request].shape_key == key and requests[s.request].workers == 1])
    m["montecarlo.moments_us_per_trial"] = per_trial_us(named("montecarlo.moments"))
    m["montecarlo.hist_us_per_trial"] = per_trial_us(named("montecarlo.eigen_histogram"))
    pair = {tag: sum(dur(s) for s in curves if requests[s.request].tag == tag)
            for tag in ("pair-w1", "pair-w2")}
    m["montecarlo.worker2_speedup"] = _ratio(pair["pair-w1"], pair["pair-w2"])
    m["montecarlo.busy_frac"] = _ratio(busy("montecarlo"), wall)
    m["montecarlo.blocks"] = float(tr.counters["montecarlo.blocks"])

    exact_all = named("exact.outage_exact")
    exact_cli = [s for s in exact_all if from_cli(s)]
    for key in ("n2_1_1", "n7_2_3", "n8_4_4", "n10_4_5", "n12_5_5"):
        pts = [s for s in exact_cli if requests[s.request].shape_key == key]
        m[f"exact.ms_per_point.{key}"] = 1e3 * _ratio(sum(dur(s) for s in pts), len(pts))
    terms = sum(s.attrs.get("terms", 0) for s in exact_all)
    m["exact.terms"] = float(terms)
    m["exact.f_residue_calls"] = float(leaf_total("exact.f_residue")[0])
    m["exact.terms_per_s"] = _ratio(terms, sum(dur(s) for s in exact_all))
    dens = named("exact.outage_density_exact")
    m["exact.density_ms"] = 1e3 * _ratio(sum(dur(s) for s in dens), len(dens))
    m["exact.busy_frac"] = _ratio(busy("exact"), wall)

    ld = [s for s in named("coulomb.outage_asymptotic") if from_cli(s)]
    by_regime = defaultdict(list)
    for s in ld:
        solved = [c for c in children[s.sid] if c.name == "coulomb.solve_regime" and "regime" in c.attrs]
        if solved and not s.error:
            by_regime[solved[0].attrs["regime"]].append(dur(s))
    for regime in ("S01", "S0b", "Sa1", "Sab"):
        times = by_regime[regime]
        m[f"coulomb.ld_ms_per_point.{regime}"] = 1e3 * _ratio(sum(times), len(times))
    all_ld = named("coulomb.outage_asymptotic")
    solves = named("coulomb.solve_at_multiplier")
    m["coulomb.solves_per_point"] = _ratio(
        sum(1 for s in solves if under(s, "coulomb.outage_asymptotic")), len(all_ld))
    m["coulomb.multiplier_ms"] = 1e3 * _ratio(sum(dur(s) for s in solves), len(solves))
    erg = [s for s in named("coulomb.ergodic_summary") if from_cli(s)]
    m["coulomb.ergodic_ms"] = 1e3 * _ratio(sum(dur(s) for s in erg), len(erg))
    m["coulomb.failures"] = float(sum(1 for s in spans if s.layer == "coulomb" and from_cli(s) and s.error))
    coulomb_busy = busy("coulomb")
    m["coulomb.busy_frac"] = _ratio(coulomb_busy, wall)

    m["specfun.g_closed_calls"] = _ratio(
        leaf_total("specfun.g_closed", "coulomb.outage_asymptotic")[0], len(all_ld))
    m["specfun.g_closed_self_frac"] = _ratio(leaf_total("specfun.g_closed")[1], coulomb_busy)
    m["specfun.elementary_symmetric_calls"] = _ratio(
        leaf_total("specfun.elementary_symmetric", "exact.outage_exact")[0], len(exact_all))
    return m
