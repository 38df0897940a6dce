"""The tracked performance harness: ``repro bench`` (docs/performance.md).

Times every pipeline phase -- trace generation, trace-cache load, LVP
annotation, timing model -- once per engine (the slow reference path
and the tiered fast path), per benchmark, serially, and optionally a
cold end-to-end ``experiment all`` pass per engine tier.  The ``load``
phase measures warm cache reads: the slow side decompresses a legacy
v1 ``.npz`` bundle, the fast side memory-maps a v2 ``.rtc`` bundle
zero-copy (docs/cache.md).  The measurements are written
as a schema-validated ``BENCH_PERF.json`` so that perf claims are a
committed, diffable artifact instead of folklore, and later runs can be
compared against the committed baseline with a generous threshold
(``repro bench --check``; CI's perf-smoke job fails only on >2x
regressions).

Wall-clock phase attribution for the end-to-end pass reuses the
:mod:`repro.obs` span machinery: the benched session runs with a
:class:`~repro.obs.metrics.MetricsRegistry` attached and the document's
``e2e.phases`` section is that registry's summed span seconds.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from contextlib import contextmanager
from typing import Iterable, Mapping, Optional

from repro.durable import write_atomic
from repro.lvp.config import SIMPLE
from repro.sim.functional import run_program
from repro.trace.annotate import annotate_trace
from repro.uarch.ppc620.config import PPC620
from repro.uarch.ppc620.model import PPC620Model
from repro.workloads.suite import BENCHMARKS, get_benchmark

#: Document format identifier (bump on incompatible layout changes).
#: v2 added the ``load`` phase (warm cache reads, v1 npz vs v2 mmap).
BENCH_SCHEMA_ID = "repro.bench/v2"

#: The committed baseline at the repository root.
BENCH_FILENAME = "BENCH_PERF.json"

#: Default regression gate: fail only when a fast-path phase total is
#: more than this many times slower than the committed baseline.
DEFAULT_THRESHOLD = 2.0

#: The benched phases, in pipeline order (``load`` is the warm
#: trace-cache read that replaces re-simulation on a cache hit).
PHASES = ("trace", "load", "annotate", "model")

#: CI's perf-smoke subset: two integer workloads and one FP workload.
QUICK_BENCHMARKS = ("compress", "eqntott", "tomcatv")

_ENGINE_ENVS = ("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL",
                "REPRO_MODEL_ENGINE")

#: Environment overrides pinning every tier to its slow reference path.
LEGACY_ENV = {"REPRO_ENGINE": "interp",
              "REPRO_ANNOTATE_KERNEL": "general",
              "REPRO_MODEL_ENGINE": "reference"}

#: Environment overrides pinning every tier to its fast path.
TIERED_ENV = {"REPRO_ENGINE": "compiled",
              "REPRO_ANNOTATE_KERNEL": "vector",
              "REPRO_MODEL_ENGINE": "fast"}


@contextmanager
def _engines(overrides: Mapping[str, str]):
    """Temporarily pin the engine-selection environment knobs."""
    saved = {name: os.environ.get(name) for name in _ENGINE_ENVS}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _speedup(slow: float, fast: float) -> float:
    return slow / fast if fast > 0 else 0.0


def _bench_load(trace, scale: str) -> tuple[float, float]:
    """Warm cache-load seconds for one trace: (v1 npz, v2 mmap).

    Each format gets its own temp directory (``load`` always resolves
    ``.rtc`` first, and a v2 store unlinks its npz sibling) and an
    untimed warm-up read so both timed loads see a hot page cache and
    pre-imported codepaths -- the steady state a cache hit actually
    runs in.
    """
    import tempfile
    from repro.harness.cache import TraceCache, write_v1_bundle

    with tempfile.TemporaryDirectory(prefix="repro-bench-load-") as tdir:
        v2_dir = pathlib.Path(tdir) / "v2"
        v1_dir = pathlib.Path(tdir) / "v1"
        v2_dir.mkdir()
        v1_dir.mkdir()
        v2_cache = TraceCache(v2_dir)
        v2_cache.store(trace, scale)
        v1_cache = TraceCache(v1_dir)
        write_v1_bundle(
            v1_cache.legacy_path(trace.name, trace.target, scale),
            trace, v1_cache.version)
        key = (trace.name, trace.target, scale)
        assert v1_cache.load(*key) is not None  # warm-up, untimed
        assert v2_cache.load(*key) is not None
        t0 = time.perf_counter()
        v1_cache.load(*key)
        slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        v2_cache.load(*key)
        fast = time.perf_counter() - t0
    return slow, fast


def bench_phases(benchmarks: Optional[Iterable[str]] = None,
                 scale: str = "small", trials: int = 1,
                 progress=None) -> dict:
    """Per-benchmark cold phase timings for both engine tiers.

    Each trial rebuilds the program from scratch so the compiled
    engine's timing includes its ahead-of-time compile (the honest
    cold-start cost).  With ``trials > 1`` the minimum is kept, the
    conventional low-noise estimator.  *progress*, if given, is called
    with one line per finished benchmark.
    """
    names = list(benchmarks) if benchmarks is not None \
        else [b.name for b in BENCHMARKS]
    results: dict[str, dict] = {}
    for name in names:
        bench = get_benchmark(name)
        times = {phase: {"slow": [], "fast": []} for phase in PHASES}
        for _ in range(max(1, trials)):
            # Trace: fresh Program per engine so both starts are cold.
            program = bench.build_program("ppc", scale)
            t0 = time.perf_counter()
            run_program(program, name=name, engine="interp")
            times["trace"]["slow"].append(time.perf_counter() - t0)

            program = bench.build_program("ppc", scale)
            t0 = time.perf_counter()
            result = run_program(program, name=name, engine="compiled")
            times["trace"]["fast"].append(time.perf_counter() - t0)
            trace = result.trace

            slow_load, fast_load = _bench_load(trace, scale)
            times["load"]["slow"].append(slow_load)
            times["load"]["fast"].append(fast_load)

            t0 = time.perf_counter()
            annotate_trace(trace, SIMPLE, kernel="general")
            times["annotate"]["slow"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            annotated = annotate_trace(trace, SIMPLE, kernel="vector")
            times["annotate"]["fast"].append(time.perf_counter() - t0)

            model = PPC620Model(PPC620)
            t0 = time.perf_counter()
            model.run(annotated, engine="reference")
            times["model"]["slow"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            model.run(annotated, engine="fast")
            times["model"]["fast"].append(time.perf_counter() - t0)

        record = {}
        for phase in PHASES:
            slow = min(times[phase]["slow"])
            fast = min(times[phase]["fast"])
            record[phase] = {
                "slow_s": round(slow, 6),
                "fast_s": round(fast, 6),
                "speedup": round(_speedup(slow, fast), 3),
            }
        results[name] = record
        if progress is not None:
            progress(f"  {name:10s} "
                     + "  ".join(f"{phase} {record[phase]['speedup']:5.2f}x"
                                 for phase in PHASES))
    return results


def _experiment_texts(scale: str,
                      benchmarks: Optional[tuple[str, ...]]) -> tuple:
    """One cold serial ``experiment all``; returns (seconds, stdout
    text, obs phase totals)."""
    from repro.harness.experiments import EXPERIMENTS, run_experiments
    from repro.harness.session import Session

    session = Session(scale=scale, benchmarks=benchmarks, metrics=True)
    t0 = time.perf_counter()
    results = run_experiments(list(EXPERIMENTS), session, jobs=1)
    seconds = time.perf_counter() - t0
    text = "\n\n".join(result.text for result in results)
    phases: dict[str, float] = {}
    for scope in session.metrics.phase_seconds().values():
        for phase, value in scope.items():
            phases[phase] = phases.get(phase, 0.0) + value
    return seconds, text, {k: round(v, 6) for k, v in sorted(phases.items())}


def bench_e2e(scale: str = "small",
              benchmarks: Optional[tuple[str, ...]] = None) -> dict:
    """Cold serial ``experiment all`` under each engine tier.

    Runs the full exhibit pass twice -- every tier pinned to its slow
    reference path, then to its fast path -- and also checks the two
    passes rendered byte-identical exhibit text (the tiered engine's
    core promise).
    """
    with _engines(LEGACY_ENV):
        slow_s, slow_text, slow_phases = _experiment_texts(scale, benchmarks)
    with _engines(TIERED_ENV):
        fast_s, fast_text, fast_phases = _experiment_texts(scale, benchmarks)
    return {
        "legacy_s": round(slow_s, 6),
        "tiered_s": round(fast_s, 6),
        "speedup": round(_speedup(slow_s, fast_s), 3),
        "identical_exhibits": slow_text == fast_text,
        "legacy_phases": slow_phases,
        "tiered_phases": fast_phases,
    }


def _totals(per_benchmark: Mapping[str, Mapping]) -> dict:
    totals: dict[str, dict] = {}
    for phase in PHASES:
        slow = sum(rec[phase]["slow_s"] for rec in per_benchmark.values())
        fast = sum(rec[phase]["fast_s"] for rec in per_benchmark.values())
        totals[phase] = {
            "slow_s": round(slow, 6),
            "fast_s": round(fast, 6),
            "speedup": round(_speedup(slow, fast), 3),
        }
    return totals


def run_bench(benchmarks: Optional[Iterable[str]] = None,
              scale: str = "small", trials: int = 1, e2e: bool = True,
              progress=None) -> dict:
    """Measure everything and assemble the ``BENCH_PERF.json`` document."""
    per_benchmark = bench_phases(benchmarks, scale=scale, trials=trials,
                                 progress=progress)
    document = {
        "schema": BENCH_SCHEMA_ID,
        "scale": scale,
        "trials": max(1, trials),
        "benchmarks": per_benchmark,
        "totals": _totals(per_benchmark),
        "e2e": None,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    if e2e:
        names = tuple(per_benchmark) if benchmarks is not None else None
        document["e2e"] = bench_e2e(scale=scale, benchmarks=names)
    return document


# ---------------------------------------------------------------------------
# Schema validation and baseline comparison
# ---------------------------------------------------------------------------

def validate_bench(document) -> list[str]:
    """Structural validation of a bench document; returns error strings."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("schema") != BENCH_SCHEMA_ID:
        errors.append(
            f"schema is {document.get('schema')!r}, "
            f"expected {BENCH_SCHEMA_ID!r}")
    if not isinstance(document.get("scale"), str):
        errors.append("scale must be a string")
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        errors.append("benchmarks must be a non-empty object")
        benchmarks = {}
    for name, record in benchmarks.items():
        for phase in PHASES:
            entry = record.get(phase) if isinstance(record, dict) else None
            if not isinstance(entry, dict):
                errors.append(f"benchmarks.{name}.{phase} missing")
                continue
            for field in ("slow_s", "fast_s", "speedup"):
                value = entry.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"benchmarks.{name}.{phase}.{field} must be a "
                        "non-negative number")
    totals = document.get("totals")
    if not isinstance(totals, dict):
        errors.append("totals must be an object")
    else:
        for phase in PHASES:
            if phase not in totals:
                errors.append(f"totals.{phase} missing")
    e2e = document.get("e2e")
    if e2e is not None:
        if not isinstance(e2e, dict):
            errors.append("e2e must be an object or null")
        else:
            for field in ("legacy_s", "tiered_s", "speedup"):
                value = e2e.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"e2e.{field} must be a non-negative number")
    return errors


def compare_bench(current: Mapping, baseline: Mapping,
                  threshold: float = DEFAULT_THRESHOLD,
                  noise_floor: float = 0.1) -> list[str]:
    """Regressions of *current* against *baseline*; returns messages.

    The gate is deliberately generous -- fail only when a fast-path
    time is more than ``threshold`` times slower than the committed
    baseline AND more than ``noise_floor`` seconds slower in absolute
    terms -- so that machine-to-machine noise never trips it; only a
    real loss of the tiered engines would.  Per-benchmark times are
    compared over the benchmarks both documents measured; the totals
    and end-to-end times are compared only when both measured the same
    benchmark set (CI's quick subset vs the full committed baseline
    would otherwise be meaningless).
    """
    def regressed(base, now):
        return (base and now is not None and now > base * threshold
                and now - base > noise_floor)

    regressions: list[str] = []
    base_benchmarks = baseline.get("benchmarks", {})
    now_benchmarks = current.get("benchmarks", {})
    for name in sorted(set(base_benchmarks) & set(now_benchmarks)):
        for phase in PHASES:
            base = base_benchmarks[name].get(phase, {}).get("fast_s")
            now = now_benchmarks[name].get(phase, {}).get("fast_s")
            if regressed(base, now):
                regressions.append(
                    f"{name}/{phase}: fast path took {now:.3f}s vs "
                    f"baseline {base:.3f}s (> {threshold:g}x)")
    if set(base_benchmarks) == set(now_benchmarks):
        for phase in PHASES:
            base = baseline.get("totals", {}).get(phase, {}).get("fast_s")
            now = current.get("totals", {}).get(phase, {}).get("fast_s")
            if regressed(base, now):
                regressions.append(
                    f"{phase}: fast-path total took {now:.3f}s vs "
                    f"baseline {base:.3f}s (> {threshold:g}x)")
        base_e2e = (baseline.get("e2e") or {}).get("tiered_s")
        now_e2e = (current.get("e2e") or {}).get("tiered_s")
        if regressed(base_e2e, now_e2e):
            regressions.append(
                f"e2e: tiered pass took {now_e2e:.3f}s vs baseline "
                f"{base_e2e:.3f}s (> {threshold:g}x)")
    return regressions


def render_bench(document: Mapping) -> str:
    """Human-readable summary of a bench document."""
    lines = [f"repro bench (scale={document['scale']}, "
             f"trials={document['trials']})"]
    lines.append(f"  {'benchmark':10s} "
                 + "  ".join(f"{phase:>14s}" for phase in PHASES))
    for name, record in document["benchmarks"].items():
        cells = []
        for phase in PHASES:
            entry = record[phase]
            cells.append(f"{entry['fast_s']:7.3f}s {entry['speedup']:4.1f}x")
        lines.append(f"  {name:10s} " + "  ".join(cells))
    totals = document["totals"]
    cells = []
    for phase in PHASES:
        entry = totals[phase]
        cells.append(f"{entry['fast_s']:7.3f}s {entry['speedup']:4.1f}x")
    lines.append(f"  {'TOTAL':10s} " + "  ".join(cells))
    e2e = document.get("e2e")
    if e2e:
        identical = "byte-identical" if e2e.get("identical_exhibits") \
            else "DIFFERENT (bug!)"
        lines.append(
            f"  experiment all: {e2e['legacy_s']:.1f}s legacy -> "
            f"{e2e['tiered_s']:.1f}s tiered ({e2e['speedup']:.2f}x, "
            f"exhibits {identical})")
    return "\n".join(lines)


def write_bench(document: Mapping, path) -> pathlib.Path:
    """Atomically write a bench document as JSON."""
    return write_atomic(path, json.dumps(document, indent=2,
                                         sort_keys=True) + "\n")


def load_bench(path) -> dict:
    """Read a bench document (OSError if missing, ValueError on damage)."""
    return json.loads(pathlib.Path(path).read_text())
