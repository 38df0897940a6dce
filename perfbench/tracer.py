"""Outside-in span tracer for the benchmark's traced runs.

The program under test is not modified: :func:`install` wraps the
public entry points of each layer from here, by
replacing every module or class binding of the original callable with
a timing wrapper.  Each wrapper records when its layer is entered and
left; the tracer turns the boundaries into *exclusive segments*
``(start, end, key)`` -- the stretches during which that layer, and no
layer nested inside it, was running.  A layer's self time is the sum
of its segments.

Worker processes forked by the program's process pools inherit the
wrappers.  A worker drops the parent state it inherited on its first
span and writes its segments to ``spans_dir`` whenever its outermost
span closes; the parent reads them back in :func:`layer_report`.

``layer_report`` attributes the traced wall clock to layers with one
rule that covers serial and parallel passes alike: every instant of
the pass is split evenly among the segments active at that instant,
except that the parent's ``parallel`` segment (waiting on the worker
pool) yields to any worker segment running at the same time.
``unattributed_s`` is measured on its own, as the instants at which no
segment is active, so the layer shares plus ``unattributed_s`` add up
to the wall clock only when every segment is attributed once.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import sys
import time

#: The key of the layer whose parent-side segments are "waiting for
#: the worker pool" while any worker segment is active.
WAITING = "parallel"

#: unattributed_s must stay below this share of the traced wall.
UNATTRIBUTED_TOLERANCE = 0.05

#: Self-time keys partition the traced wall.  These layer metrics are
#: sums over keys; with ``unattributed_s`` they must add up to it.
SELF_METRICS = {
    "workloads.build.self_s": ("workloads.build",),
    "workloads.verify.self_s": ("workloads.verify",),
    "sim.run.self_s": ("sim.run",),
    "cache.load.self_s": ("cache.load",),
    "cache.store.self_s": ("cache.store",),
    "annotate.self_s": ("annotate.vector", "annotate.mono",
                        "annotate.general"),
    "sweep.self_s": ("sweep",),
    "kernels.decode.self_s": ("kernels.decode",),
    "kernels.stage_a.self_s": ("kernels.stage_a",),
    "kernels.stage_b.self_s": ("kernels.stage_b",),
    "kernels.stage_c.self_s": ("kernels.stage_c",),
    "locality.self_s": ("locality",),
    "model.ppc.self_s": ("model.ppc",),
    "model.alpha.self_s": ("model.alpha",),
    "guard.self_s": ("guard",),
    "session.self_s": ("session",),
    "render.self_s": ("render",),
    "parallel.self_s": ("parallel",),
    "journal.self_s": ("journal",),
    "obs.self_s": ("obs",),
}

#: Tier names that are the oracle of their stage (a call on one of
#: these after a fast-tier call in the same guard span is a sentinel
#: re-run).
_ORACLE = {"sim": "interp", "annotate": "general", "model": "reference"}


class _Frame:
    __slots__ = ("key", "start", "fast_seen")

    def __init__(self, key: str, start: float) -> None:
        self.key = key
        self.start = start
        self.fast_seen = False


class Tracer:
    """Span stack, exclusive segments and counters of one process."""

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir
        self.owner = os.getpid()
        #: EngineReports returned by the parallel engine (parent only).
        self.reports: list = []
        #: Counter name -> value (cleared in place: wrappers hold it).
        self.counts: collections.Counter = collections.Counter()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list[_Frame] = []
        self.segments: list[tuple[float, float, str]] = []
        self.counts.clear()
        self.mark = 0.0
        self.flushed = 0

    # -- span boundaries ---------------------------------------------------
    def enter(self, key: str) -> None:
        if self.pid != os.getpid():
            self._reset()  # a forked worker: drop the parent's state
        now = time.perf_counter()
        if self.stack:
            self.segments.append((self.mark, now, self.stack[-1].key))
        self.stack.append(_Frame(key, now))
        self.mark = now

    def exit(self) -> float:
        """Close the innermost span; returns its inclusive seconds."""
        now = time.perf_counter()
        frame = self.stack.pop()
        self.segments.append((self.mark, now, frame.key))
        self.mark = now
        if not self.stack and self.pid != self.owner:
            self._flush()
        return now - frame.start

    def guard_frame(self):
        """The innermost open guard span of this process, if any."""
        for frame in reversed(self.stack[:-1]):
            if frame.key == "guard":
                return frame
        return None

    def _flush(self) -> None:
        path = os.path.join(self.spans_dir,
                            f"{self.pid}-{self.flushed}.json")
        with open(path, "w") as handle:
            json.dump({"segments": self.segments,
                       "counts": dict(self.counts)}, handle)
        self.flushed += 1
        self.segments = []
        self.counts.clear()

    def worker_payloads(self) -> list[dict]:
        payloads = []
        for name in sorted(os.listdir(self.spans_dir)):
            with open(os.path.join(self.spans_dir, name)) as handle:
                payloads.append(json.load(handle))
        return payloads


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------
def _timed(tracer: Tracer, fn, key: str, after=None):
    """Wrap *fn* in a span of layer *key*; ``after(result)`` records
    counters from each call's result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result)
        return result

    return wrapper


class _TimedContext:
    """Context manager proxy charging enter/exit to the ``obs`` layer
    (the enclosed block stays with whichever span encloses it)."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self.tracer = tracer
        self.inner = inner

    def __enter__(self):
        self.tracer.enter("obs")
        try:
            return self.inner.__enter__()
        finally:
            self.tracer.exit()

    def __exit__(self, *exc):
        self.tracer.enter("obs")
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer.exit()


def _rebind(owner, name: str, make) -> None:
    """Replace ``owner.name`` -- a class attribute, or a module function
    together with every alias of it in loaded ``repro`` modules."""
    if isinstance(owner, type):
        setattr(owner, name, make(owner.__dict__[name]))
        return
    original = getattr(owner, name)
    wrapped = make(original)
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the program (see module doc)."""
    import repro.cli  # noqa: F401  (binds every alias before rebinding)
    from repro.harness import experiments, journal, parallel, session
    from repro.harness import guard, sweep
    from repro.harness.cache import TraceCache
    from repro.lvp import locality
    from repro.lvp.unit import LVPStats
    from repro.obs import metrics
    from repro.sim import compile as sim_compile
    from repro.sim import functional
    from repro.trace import annotate, kernels, stats
    from repro.uarch.axp21164.model import AXP21164Model, AXP21164Result
    from repro.uarch.engine import resolve_model_engine
    from repro.uarch.ppc620.model import PPC620Model, PPC620Result
    from repro.workloads.suite import BENCHMARKS, Benchmark

    count = tracer.counts

    def tiered(stage: str, resolve, key_of, after_counts):
        """Span for a stage entry point that runs on one of several
        tiers; counts sentinel re-runs on the oracle tier."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tier = resolve(args, kwargs)
                tracer.enter(key_of(tier))
                guard_frame = tracer.guard_frame()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    seconds = tracer.exit()
                if guard_frame is not None:
                    if tier != _ORACLE[stage]:
                        guard_frame.fast_seen = True
                    elif guard_frame.fast_seen:
                        count["guard.oracle_reruns"] += 1
                        count["guard.oracle_s"] += seconds
                after_counts(tier, args, kwargs, result)
                return result
            return wrapper
        return make

    # -- sim ------------------------------------------------------------
    def sim_counts(tier, args, kwargs, result):
        count["sim.run.calls"] += 1
        count[f"sim.{tier}.calls"] += 1
        count["sim.insn"] += result.instruction_count

    _rebind(functional, "run_program", tiered(
        "sim",
        lambda a, k: sim_compile.resolve_engine(k.get("engine", "auto")),
        lambda tier: "sim.run", sim_counts))

    # -- annotate -------------------------------------------------------
    def annotate_counts(tier, args, kwargs, result):
        count["annotate.calls"] += 1
        count[f"annotate.{tier}.calls"] += 1

    _rebind(annotate, "annotate_trace", tiered(
        "annotate",
        lambda a, k: annotate.resolve_kernel(
            k.get("kernel"), a[1], k.get("audit", False),
            k.get("fault_hook")),
        lambda tier: f"annotate.{tier}", annotate_counts))

    # -- model ----------------------------------------------------------
    for target, model in (("ppc", PPC620Model), ("alpha", AXP21164Model)):
        def model_counts(tier, args, kwargs, result, target=target):
            count[f"model.{target}.calls"] += 1
            count[f"model.{target}.{tier}.calls"] += 1
            count[f"model.{target}.insn"] += len(args[1].trace)

        _rebind(model, "run", tiered(
            "model",
            lambda a, k: resolve_model_engine(k.get("engine")),
            lambda tier, target=target: f"model.{target}", model_counts))

    # -- workloads ------------------------------------------------------
    _rebind(Benchmark, "build_program",
            lambda fn: _timed(tracer, fn, "workloads.build"))
    for bench in BENCHMARKS:
        object.__setattr__(bench, "verify",
                           _timed(tracer, bench.verify, "workloads.verify"))

    # -- cache ----------------------------------------------------------
    def load_counts(result):
        count["cache.load.calls"] += 1
        count["cache.load.hits"] += result is not None

    _rebind(TraceCache, "load",
            lambda fn: _timed(tracer, fn, "cache.load", load_counts))
    _rebind(TraceCache, "store",
            lambda fn: _timed(tracer, fn, "cache.store"))

    # -- sweep + kernels ------------------------------------------------
    def cell_counts(result):
        count["sweep.cells"] += len(result)

    _rebind(sweep, "evaluate_configs",
            lambda fn: _timed(tracer, fn, "sweep", cell_counts))
    _rebind(sweep, "run_sweep", lambda fn: _timed(tracer, fn, "sweep"))

    def stage_a_counts(result):
        count["kernels.stage_a.passes"] += 1

    _rebind(kernels, "decode_events",
            lambda fn: _timed(tracer, fn, "kernels.decode"))
    _rebind(kernels, "run_stage_a",
            lambda fn: _timed(tracer, fn, "kernels.stage_a",
                              stage_a_counts))
    _rebind(kernels, "stage_a_last_value",
            lambda fn: _timed(tracer, fn, "kernels.stage_a"))
    _rebind(kernels, "run_stage_b",
            lambda fn: _timed(tracer, fn, "kernels.stage_b"))
    _rebind(kernels, "run_stage_c",
            lambda fn: _timed(tracer, fn, "kernels.stage_c"))

    # -- locality -------------------------------------------------------
    for owner, name in ((locality, "measure_value_locality"),
                        (locality, "measure_locality_by_kind"),
                        (stats, "compute_stats")):
        _rebind(owner, name, lambda fn: _timed(tracer, fn, "locality"))

    # -- guard ----------------------------------------------------------
    for name in ("run_trace", "run_annotate", "run_model"):
        _rebind(guard.TierGuard, name,
                lambda fn: _timed(tracer, fn, "guard"))

    def demotion_counts(result):
        count["guard.demotions"] += 1

    _rebind(guard.TierGuard, "_demote",
            lambda fn: _timed(tracer, fn, "guard", demotion_counts))

    # -- session --------------------------------------------------------
    for name in ("__init__", "trace", "annotated", "ppc_result",
                 "alpha_result"):
        _rebind(session.Session, name,
                lambda fn: _timed(tracer, fn, "session"))

    # -- render ---------------------------------------------------------
    for name in ("run_experiment", "run_experiments"):
        _rebind(experiments, name, lambda fn: _timed(tracer, fn, "render"))

    # -- parallel -------------------------------------------------------
    def keep_report(result):
        tracer.reports.append(result)

    _rebind(parallel.ParallelEngine, "run",
            lambda fn: _timed(tracer, fn, "parallel", keep_report))
    _rebind(parallel, "_run_shard", lambda fn: _timed(tracer, fn, "parallel"))

    # -- journal --------------------------------------------------------
    def record_counts(result):
        count["journal.records"] += 1

    _rebind(journal.RunJournal, "append",
            lambda fn: _timed(tracer, fn, "journal", record_counts))
    for name in ("shard_started", "shard_finished", "finished", "close"):
        _rebind(journal.RunJournal, name,
                lambda fn: _timed(tracer, fn, "journal"))
    _rebind(journal.RunJournal, "create", lambda fn: classmethod(
        _timed(tracer, fn.__func__, "journal")))
    for name in ("run_journaled", "prune_runs", "build_manifest"):
        _rebind(journal, name, lambda fn: _timed(tracer, fn, "journal"))

    # -- obs ------------------------------------------------------------
    registry = metrics.MetricsRegistry
    for name in ("inc", "add_many", "inc_run", "add_run_many",
                 "record_span", "fragment", "merge_fragment",
                 "to_document"):
        _rebind(registry, name, lambda fn: _timed(tracer, fn, "obs"))
    _rebind(registry, "span", lambda fn: functools.wraps(fn)(
        lambda *a, **k: _TimedContext(tracer, fn(*a, **k))))
    for owner in (LVPStats, PPC620Result, AXP21164Result):
        _rebind(owner, "counters", lambda fn: _timed(tracer, fn, "obs"))
    _rebind(session.Session, "collect_run_counters",
            lambda fn: _timed(tracer, fn, "obs"))
    for name in ("write_metrics", "metrics_enabled_from_env"):
        _rebind(metrics, name, lambda fn: _timed(tracer, fn, "obs"))
    _rebind(functional, "sim_counters", lambda fn: _timed(tracer, fn, "obs"))


# ---------------------------------------------------------------------------
# Attribution.
# ---------------------------------------------------------------------------
def wall_shares(segments, start: float,
                end: float) -> tuple[dict[str, float], float]:
    """Split ``[start, end]`` among *segments* (see module doc).

    *segments* holds ``(start, end, key, is_worker)`` tuples.  Returns
    key -> attributed seconds, and the seconds at which no segment was
    active (the unattributed time).
    """
    events = []
    for index, (seg_start, seg_end, _, _) in enumerate(segments):
        seg_start, seg_end = max(seg_start, start), min(seg_end, end)
        if seg_end > seg_start:
            events.append((seg_start, 1, index))
            events.append((seg_end, 0, index))
    events.sort()
    shares: dict[str, float] = collections.defaultdict(float)
    idle = 0.0
    active: dict[int, tuple[str, bool]] = {}
    last = start
    for moment, opening, index in events:
        if moment > last and not active:
            idle += moment - last
        elif moment > last:
            members = list(active.values())
            if any(worker for _, worker in members):
                members = [(key, worker) for key, worker in members
                           if worker or key != WAITING]
            slice_ = (moment - last) / len(members)
            for key, _ in members:
                shares[key] += slice_
        last = moment
        if opening:
            segment = segments[index]
            active[index] = (segment[2], segment[3])
        else:
            del active[index]
    idle += end - last
    return dict(shares), idle


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def layer_report(tracer: Tracer, start: float,
                 end: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass over ``[start, end]``."""
    segments = [(s, e, key, False) for s, e, key in tracer.segments]
    counts = collections.Counter(tracer.counts)
    for payload in tracer.worker_payloads():
        segments += [(s, e, key, True) for s, e, key in payload["segments"]]
        counts.update(payload["counts"])
    shares, idle = wall_shares(segments, start, end)
    wall = end - start
    out: dict[str, float] = {}
    for metric, keys in SELF_METRICS.items():
        out[metric] = sum(shares.get(key, 0.0) for key in keys)
    out["annotate.general.self_s"] = shares.get("annotate.general", 0.0)
    out["unattributed_s"] = idle
    out["traced_wall_s"] = wall

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    for name in ("sim.run.calls", "sim.interp.calls", "cache.load.calls",
                 "annotate.calls", "annotate.vector.calls",
                 "annotate.mono.calls", "annotate.general.calls",
                 "sweep.cells", "model.ppc.calls", "model.alpha.calls",
                 "model.ppc.reference.calls", "model.alpha.reference.calls",
                 "guard.oracle_reruns", "guard.demotions",
                 "journal.records"):
        out[name] = counts.get(name, 0)
    out["guard.oracle_s"] = counts.get("guard.oracle_s", 0.0)
    out["sim.insn_per_s"] = ratio(counts.get("sim.insn", 0),
                                  out["sim.run.self_s"])
    for target in ("ppc", "alpha"):
        out[f"model.{target}.insn_per_s"] = ratio(
            counts.get(f"model.{target}.insn", 0),
            out[f"model.{target}.self_s"])
    out["cache.hit_ratio"] = ratio(counts.get("cache.load.hits", 0),
                                   out["cache.load.calls"])
    out["kernels.stage_a.reuse_ratio"] = ratio(
        out["sweep.cells"], counts.get("kernels.stage_a.passes", 0))
    out.update(_parallel_metrics(tracer.reports))
    return out


def _parallel_metrics(reports: list) -> dict[str, float]:
    """Worker-pool figures from the parallel engine's EngineReport."""
    out = {"parallel.parallelism": 0.0, "parallel.idle_share": 0.0,
           "parallel.busy.trace_s": 0.0, "parallel.busy.annotate_s": 0.0,
           "parallel.busy.model_s": 0.0, "parallel.unit_p50_s": 0.0,
           "parallel.unit_p95_s": 0.0}
    reports = [r for r in reports if r is not None and r.timings]
    if not reports:
        return out
    timings = [t for report in reports for t in report.timings]
    busy = sum(t.seconds for t in timings)
    wall = sum(report.wall_seconds for report in reports)
    capacity = sum(report.wall_seconds * report.jobs for report in reports)
    out["parallel.parallelism"] = busy / wall if wall else 0.0
    out["parallel.idle_share"] = 1.0 - busy / capacity if capacity else 0.0
    for stage in ("trace", "annotate", "model"):
        out[f"parallel.busy.{stage}_s"] = sum(
            t.seconds for t in timings if t.unit.stage == stage)
    seconds = [t.seconds for t in timings]
    out["parallel.unit_p50_s"] = _percentile(seconds, 0.50)
    out["parallel.unit_p95_s"] = _percentile(seconds, 0.95)
    return out
