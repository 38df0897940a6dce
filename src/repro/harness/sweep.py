"""One-pass design-space sweep engine (``repro sweep``).

One ``annotate_trace`` call evaluates one LVP configuration and pays
the full trace walk for it.  A design-space sweep wants *hundreds* of
configurations over the same trace, and almost all of the per-config
work is redundant: the trace decode is identical, the value-predictor
pass is shared by every configuration that sizes the predictor the
same way, and the classifier pass is shared by every configuration
that additionally sizes the LCT the same way.  This module evaluates a
whole grid against one in-memory decode by factoring the annotation
data flow into three stages:

* **Stage A** (one run per distinct *predictor key*): replay the load
  stream through the value predictor, recording for every dynamic load
  whether the prediction would have been correct (``would_hit``) and
  the LVPT index at event time (the CVU pair key's second half --
  snapshotted per event, which matters for gshare indexing where the
  index moves with the branch history).  Predictor training is
  unconditional and independent of the LCT/CVU, so this stream is
  exact for every configuration sharing the predictor shape.
* **Stage B** (one run per distinct predictor x LCT key): evolve the
  LCT's saturating counters from the ``would_hit`` stream, recording
  each load's classification.  The LCT trains on ground truth alone,
  so its evolution is independent of the CVU.
* **Stage C** (one run per configuration): simulate the CVU CAM over
  the constant-classified loads interleaved with the store stream, and
  assemble the full per-load outcomes and
  :class:`~repro.lvp.unit.LVPStats` -- bit-identical to a standalone
  :func:`~repro.trace.annotate.annotate_trace` run of that
  configuration (the differential suite in
  ``tests/harness/test_sweep.py`` holds this cell by cell).

Stage A has inlined fast paths for the common predictor shapes:
depth-1 last-value prediction is fully vectorized, and the
history/stride/FCM/last-N/hybrid families run as flat loops over table
lists instead of per-load method dispatch.  Unusual shapes (tagged,
gshare) fall back to the real predictor objects via
:func:`~repro.lvp.unit.build_predictor`, which also guarantees any
future family works unoptimized before it works fast.

The stages and the memoised per-config loop that wires them
(:func:`~repro.trace.kernels.run_stages`) live in
:mod:`repro.trace.kernels`, shared with the standard
``annotate_trace`` path; this module keeps the grid planning,
sharding, journalling, and exhibit rendering on top of it.

Chunks of the grid shard across worker processes exactly like the
parallel experiment engine (grouped so stage-A/B work is amortized
within a chunk, merged back in deterministic grid order), and every
chunk is journalled write-ahead under ``.repro/sweeps/<run-id>/`` so
an interrupted sweep resumes with ``repro sweep --resume`` without
recomputing finished chunks (:class:`SweepJournal` is a schema over
the shared :class:`~repro.harness.journal.WriteAheadJournal` core, with
JSON checkpoints instead of pickles).

``run_sweep_bench`` measures the shared-decode speedup against
per-configuration runs of the general-path oracle
(``annotate_trace(kernel="general")``) over the same grid and
writes/validates/compares the committed ``BENCH_SWEEP.json`` baseline
(see ``docs/sweep.md``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.durable import write_atomic
from repro.errors import ConfigError, JournalError
from repro.harness.journal import (
    WriteAheadJournal,
    _sha256,
    trace_digest,
)
from repro.lvp.config import LVPConfig
from repro.lvp.unit import LVPStats
from repro.trace.kernels import (
    SweepEvents,
    decode_events,
    lct_key,
    predictor_key,
    run_stages,
)
from repro.trace.records import Trace

#: Sweep document schema identifier.
SWEEP_SCHEMA_ID = "repro.sweep/v1"
#: Sweep benchmark (BENCH_SWEEP.json) schema identifier.
SWEEP_BENCH_SCHEMA_ID = "repro.sweep-bench/v1"

#: Where sweep run directories live (separate from experiment runs so
#: the two LATEST pointers and pruning policies never interact).
SWEEP_RUNS_DIR_ENV = "REPRO_SWEEP_RUNS_DIR"
DEFAULT_SWEEP_RUNS_DIR = os.path.join(".repro", "sweeps")

#: Default configurations per worker chunk.
DEFAULT_CHUNK_SIZE = 16


def sweep_runs_dir_from_env(default: Optional[str] = None) -> pathlib.Path:
    """The configured sweep-runs directory (``REPRO_SWEEP_RUNS_DIR``)."""
    return pathlib.Path(
        os.environ.get(SWEEP_RUNS_DIR_ENV) or default
        or DEFAULT_SWEEP_RUNS_DIR)


# ---------------------------------------------------------------------------
# Sweep cells.
# ---------------------------------------------------------------------------
@dataclass
class SweepCell:
    """One configuration's complete sweep result."""

    config: LVPConfig
    stats: LVPStats
    outcome_digest: str
    #: Full per-record outcome array (kept only on request: the
    #: differential suite compares it against annotate_trace).
    outcomes: Optional[np.ndarray] = None

    def as_dict(self) -> dict:
        """The JSON-able cell record the sweep document carries."""
        config = self.config
        return {
            "name": config.name,
            "predictor": config.predictor,
            "lvpt_entries": config.lvpt_entries,
            "history_depth": config.history_depth,
            "selection": config.selection,
            "lct_entries": config.lct_entries,
            "lct_bits": config.lct_bits,
            "cvu_entries": config.cvu_entries,
            "index_mode": config.index_mode,
            "ghr_bits": config.ghr_bits,
            "lvpt_tagged": config.lvpt_tagged,
            "outcome_digest": self.outcome_digest,
            "accuracy": round(self.stats.prediction_accuracy, 6),
            "constant_fraction": round(self.stats.constant_fraction, 6),
            "predictable_identified":
                round(self.stats.predictable_identified, 6),
            "unpredictable_identified":
                round(self.stats.unpredictable_identified, 6),
            "counters": self.stats.counters(),
        }


# ---------------------------------------------------------------------------
# The batched evaluator.
# ---------------------------------------------------------------------------
def evaluate_configs(trace: Trace, configs: Sequence[LVPConfig],
                     keep_outcomes: bool = False,
                     events: Optional[SweepEvents] = None,
                     ) -> list[SweepCell]:
    """Evaluate every configuration in *configs* over one trace decode.

    Returns cells in *configs* order, each bit-identical (outcomes and
    statistics) to ``annotate_trace(trace, config)``.  Perfect-oracle
    configurations have no table design to sweep and profile-filtered
    ones are outside the staged data flow; both are rejected.
    """
    for config in configs:
        if config.perfect or config.profile_filter is not None:
            raise ConfigError(
                f"{config.name}: perfect/profile-filtered configurations "
                "cannot be swept (use annotate_trace)")
    if events is None:
        needs_branches = any(c.index_mode == "gshare" for c in configs)
        events = decode_events(trace, branches=needs_branches)
    cells: list[SweepCell] = []
    for config, (full, stats) in zip(configs, run_stages(events, configs)):
        digest = _sha256(np.ascontiguousarray(full).tobytes())
        cells.append(SweepCell(config=config, stats=stats,
                               outcome_digest=digest,
                               outcomes=full if keep_outcomes else None))
    return cells


# ---------------------------------------------------------------------------
# Sharding across worker processes.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _SweepChunkSpec:
    """Everything a worker needs to evaluate one chunk of the grid."""

    chunk_id: int
    bench: str
    target: str
    scale: str
    cache_dir: Optional[str]
    configs: tuple[LVPConfig, ...]


def _run_sweep_chunk(spec: _SweepChunkSpec) -> list[dict]:
    """Worker entry point: one chunk's cells as JSON-able dicts."""
    from repro.harness.session import Session
    session = Session(scale=spec.scale, benchmarks=(spec.bench,),
                      cache_dir=spec.cache_dir, metrics=False)
    trace = session.trace(spec.bench, spec.target)
    return [cell.as_dict()
            for cell in evaluate_configs(trace, spec.configs)]


def plan_chunks(configs: Sequence[LVPConfig],
                chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[tuple[int, ...]]:
    """Partition grid indices into worker chunks.

    Configurations are grouped by stage-B key before splitting, so a
    chunk's members share stage-A/B passes instead of scattering one
    predictor family across every worker.  Returns tuples of indices
    into *configs*; deterministic for a given grid (the sweep journal
    records the plan and resume verifies it).
    """
    order = sorted(range(len(configs)),
                   key=lambda i: (lct_key(configs[i]), i))
    size = max(1, int(chunk_size))
    return [tuple(order[start:start + size])
            for start in range(0, len(order), size)]


class SweepObserver:
    """Parent-side progress hooks (the sweep journal implements these)."""

    def chunk_started(self, spec: _SweepChunkSpec) -> None:
        """*spec* was handed to a worker (or the in-process runner)."""

    def chunk_finished(self, spec: _SweepChunkSpec,
                       cells: list[dict]) -> None:
        """*spec* completed; *cells* is its full payload."""


def run_sweep(bench: str, configs: Sequence[LVPConfig], *,
              target: str = "ppc", scale: str = "small",
              jobs: int = 1, cache_dir: Optional[str] = None,
              chunk_size: int = DEFAULT_CHUNK_SIZE,
              observer: Optional[SweepObserver] = None,
              preloaded: Optional[dict] = None,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Evaluate *configs* over *bench*'s trace; returns the sweep document.

    ``jobs > 1`` shards grid chunks across a process pool (each worker
    decodes the trace once -- a cache hit after the first -- and
    evaluates its whole chunk against that decode); results merge in
    grid order, so the document is bit-identical to a serial run.
    ``preloaded`` maps chunk ids to already-computed cell payloads
    (from a resumed sweep journal): those chunks are not re-run.
    """
    observer = observer or SweepObserver()
    preloaded = dict(preloaded or {})
    chunks = plan_chunks(configs, chunk_size)
    specs = [
        _SweepChunkSpec(chunk_id=i, bench=bench, target=target,
                        scale=scale, cache_dir=cache_dir,
                        configs=tuple(configs[j] for j in indices))
        for i, indices in enumerate(chunks)
    ]
    todo = [spec for spec in specs if spec.chunk_id not in preloaded]
    payloads: dict[int, list[dict]] = dict(preloaded)
    start = time.perf_counter()

    def _note(message: str) -> None:
        if progress is not None:
            progress(message)

    if jobs <= 1 or len(todo) <= 1:
        for spec in todo:
            observer.chunk_started(spec)
            cells = _run_sweep_chunk(spec)
            payloads[spec.chunk_id] = cells
            observer.chunk_finished(spec, cells)
            _note(f"chunk {spec.chunk_id + 1}/{len(specs)}: "
                  f"{len(cells)} configs")
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        workers = min(jobs, len(todo))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for spec in todo:
                observer.chunk_started(spec)
                futures[pool.submit(_run_sweep_chunk, spec)] = spec
            for future in as_completed(futures):
                spec = futures[future]
                cells = future.result()
                payloads[spec.chunk_id] = cells
                observer.chunk_finished(spec, cells)
                _note(f"chunk {spec.chunk_id + 1}/{len(specs)}: "
                      f"{len(cells)} configs")

    # Merge back into grid order (never completion order).
    by_index: dict[int, dict] = {}
    for chunk_id, indices in enumerate(chunks):
        cells = payloads[chunk_id]
        for j, cell in zip(indices, cells):
            by_index[j] = cell
    return {
        "schema": SWEEP_SCHEMA_ID,
        "bench": bench,
        "target": target,
        "scale": scale,
        "configs": len(configs),
        "jobs": int(jobs),
        "wall_s": round(time.perf_counter() - start, 4),
        "cells": [by_index[i] for i in range(len(configs))],
    }


# ---------------------------------------------------------------------------
# The sweep journal (write-ahead, resumable).
# ---------------------------------------------------------------------------
class SweepJournal(WriteAheadJournal, SweepObserver):
    """Write-ahead journal of one ``repro sweep`` run.

    A thin schema over :class:`~repro.harness.journal.WriteAheadJournal`
    (which owns the manifest, the CRC'd journal, durable checkpoints,
    ``LATEST`` and the ``REPRO_JOURNAL_CRASH_AFTER`` drill): units are
    grid chunks, recorded ``planned`` at creation, ``started`` when
    handed out, and ``done`` only after the chunk's cell payload is
    durably checkpointed as ``checkpoints/chunk-<n>.json``.
    """

    IDENTITY_KEYS = ("version", "bench", "target", "scale",
                     "config_names", "chunks", "chunk_size")
    UNIT_KEY = "chunk"
    DIGEST_KEY = "digest"
    KIND = "sweep"

    @staticmethod
    def _planned_units(manifest: dict):
        return range(manifest.get("chunks", 0))

    def _checkpoint_name(self, chunk_id: int) -> str:
        return f"chunk-{chunk_id}.json"

    @staticmethod
    def _encode_checkpoint(cells: list[dict]) -> bytes:
        return json.dumps(cells, sort_keys=True,
                          separators=(",", ":")).encode()

    _decode_checkpoint = staticmethod(json.loads)

    def resume_command(self) -> str:
        return (f"repro sweep {self.manifest.get('bench')} "
                f"--resume {self.run_id}")

    # -- observer hooks ------------------------------------------------------
    def chunk_started(self, spec: _SweepChunkSpec) -> None:
        self.append({"type": "started", "chunk": spec.chunk_id,
                     "configs": len(spec.configs)})

    def chunk_finished(self, spec: _SweepChunkSpec,
                       cells: list[dict]) -> None:
        digest = self._checkpoint(spec.chunk_id, cells)
        if digest is not None:
            self._commit({"type": "done", "chunk": spec.chunk_id,
                          "digest": digest})

    def load_checkpoints(self) -> dict[int, list[dict]]:
        """Verified cell payloads of every completed chunk."""
        return self._load_verified()


def build_sweep_manifest(bench: str, target: str, scale: str,
                         configs: Sequence[LVPConfig],
                         chunk_size: int, jobs: int,
                         cache_dir: Optional[str] = None) -> dict:
    """The manifest for a fresh journaled sweep."""
    from repro import __version__
    return {
        "version": __version__,
        "kind": "sweep",
        "bench": bench,
        "target": target,
        "scale": scale,
        "config_names": [config.name for config in configs],
        "chunks": len(plan_chunks(configs, chunk_size)),
        "chunk_size": int(chunk_size),
        "jobs": int(jobs),
        "cache_dir": cache_dir,
    }


def run_journaled_sweep(bench: str, configs: Sequence[LVPConfig], *,
                        journal: SweepJournal, target: str = "ppc",
                        scale: str = "small", jobs: int = 1,
                        cache_dir: Optional[str] = None,
                        resume: bool = False,
                        progress: Optional[Callable[[str], None]] = None,
                        ) -> dict:
    """Run (or resume) one journaled sweep; returns the sweep document."""
    manifest = journal.manifest
    if resume:
        names = [config.name for config in configs]
        if names != manifest.get("config_names"):
            raise JournalError(
                f"sweep run {journal.run_id!r} was recorded over a "
                "different grid; start a fresh sweep")
    preloaded = journal.load_checkpoints() if resume else {}
    document = run_sweep(
        bench, configs, target=target, scale=scale, jobs=jobs,
        cache_dir=cache_dir,
        chunk_size=int(manifest.get("chunk_size", DEFAULT_CHUNK_SIZE)),
        observer=journal, preloaded=preloaded, progress=progress)
    document["run_id"] = journal.run_id
    return document


# ---------------------------------------------------------------------------
# Sweep document validation + exhibits.
# ---------------------------------------------------------------------------
def validate_sweep(document: dict) -> list[str]:
    """Schema violations in a sweep document (empty = valid)."""
    errors: list[str] = []
    if document.get("schema") != SWEEP_SCHEMA_ID:
        errors.append(f"schema must be {SWEEP_SCHEMA_ID!r}, got "
                      f"{document.get('schema')!r}")
    cells = document.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells must be a non-empty list")
        return errors
    if document.get("configs") != len(cells):
        errors.append(f"configs={document.get('configs')} does not match "
                      f"{len(cells)} cells")
    for i, cell in enumerate(cells):
        for key in ("name", "predictor", "lvpt_entries", "lct_entries",
                    "lct_bits", "cvu_entries", "outcome_digest",
                    "counters"):
            if key not in cell:
                errors.append(f"cell {i} is missing {key!r}")
                break
    return errors


def _family(cell: dict) -> str:
    if cell["index_mode"] == "gshare":
        return "gshare"
    if cell.get("selection") == "perfect":
        return "history/oracle"
    return cell["predictor"]


def render_sweep(document: dict, top: int = 10) -> str:
    """Human-readable sweep summary: headline + the best cells."""
    from repro.analysis.report import TextTable
    cells = document["cells"]
    # No wall time or job count here: sweep stdout must stay
    # byte-identical across serial, parallel, and resumed runs (the
    # timing goes to stderr, like experiment runs).
    lines = [
        f"sweep of {document['bench']} ({document['target']}, "
        f"{document['scale']}): {document['configs']} configurations"
    ]
    table = TextTable(
        ["config", "family", "accuracy", "const frac", "no-pred"],
        title=f"Top {min(top, len(cells))} configurations by accuracy")
    ranked = sorted(cells, key=lambda c: (-c["accuracy"], c["name"]))
    for cell in ranked[:top]:
        counters = cell["counters"]
        loads = counters["loads"] or 1
        table.add_row([
            cell["name"], _family(cell),
            f"{cell['accuracy']:.4f}",
            f"{cell['constant_fraction']:.4f}",
            f"{counters['no_prediction'] / loads:.4f}",
        ])
    lines.append(table.render())
    return "\n".join(lines)


def render_table3_family(document: dict) -> str:
    """Paper Table 3 family: LCT identification rates across LCT shapes.

    One row per (predictor family, LCT entries, LCT bits), averaged
    over the grid cells sharing that classifier shape.
    """
    from repro.analysis.report import TextTable
    groups: dict[tuple, list[dict]] = {}
    for cell in document["cells"]:
        key = (_family(cell), cell["lct_entries"], cell["lct_bits"])
        groups.setdefault(key, []).append(cell)
    table = TextTable(
        ["family", "LCT entries", "bits", "pred. identified",
         "unpred. identified", "cells"],
        title="LCT classification accuracy by classifier shape "
              "(Table 3 family)")
    for key in sorted(groups):
        cells = groups[key]
        pred = sum(c["predictable_identified"] for c in cells)
        unpred = sum(c["unpredictable_identified"] for c in cells)
        family, entries, bits = key
        table.add_row([
            family, entries, bits,
            f"{pred / len(cells):.4f}",
            f"{unpred / len(cells):.4f}",
            len(cells),
        ])
    return table.render()


def render_table4_family(document: dict) -> str:
    """Paper Table 4 family: constant fraction across CVU capacities."""
    from repro.analysis.report import TextTable
    groups: dict[tuple, list[dict]] = {}
    for cell in document["cells"]:
        key = (_family(cell), cell["lct_bits"], cell["cvu_entries"])
        groups.setdefault(key, []).append(cell)
    table = TextTable(
        ["family", "LCT bits", "CVU entries", "constant fraction",
         "stale hits", "cells"],
        title="Constant-load fraction by CVU capacity (Table 4 family)")
    for key in sorted(groups):
        cells = groups[key]
        fraction = sum(c["constant_fraction"] for c in cells) / len(cells)
        stale = sum(c["counters"]["cvu_stale_hits"] for c in cells)
        family, bits, cvu = key
        table.add_row([family, bits, cvu, f"{fraction:.4f}", stale,
                       len(cells)])
    return table.render()


def render_figure6_family(document: dict) -> str:
    """Paper Figure 6 family: accuracy versus LVPT capacity per family."""
    from repro.analysis.report import TextTable
    groups: dict[tuple, list[dict]] = {}
    for cell in document["cells"]:
        key = (_family(cell), cell["history_depth"], cell["lvpt_entries"])
        groups.setdefault(key, []).append(cell)
    table = TextTable(
        ["family", "depth", "LVPT entries", "accuracy", "coverage",
         "cells"],
        title="Prediction accuracy by LVPT capacity (Figure 6 family)")
    for key in sorted(groups):
        cells = groups[key]
        accuracy = sum(c["accuracy"] for c in cells) / len(cells)
        attempted = loads = 0
        for cell in cells:
            counters = cell["counters"]
            attempted += (counters["predicted_correct"]
                          + counters["constant_loads"]
                          + counters["mispredicts"])
            loads += counters["loads"]
        family, depth, entries = key
        table.add_row([
            family, depth, entries, f"{accuracy:.4f}",
            f"{attempted / loads:.4f}" if loads else "0.0000",
            len(cells),
        ])
    return table.render()


def render_exhibits(document: dict) -> str:
    """All three paperlike sensitivity exhibits."""
    return "\n\n".join([
        render_figure6_family(document),
        render_table3_family(document),
        render_table4_family(document),
    ])


# ---------------------------------------------------------------------------
# BENCH_SWEEP.json: the shared-decode speedup benchmark.
# ---------------------------------------------------------------------------
def run_sweep_bench(bench: str = "compress", scale: str = "tiny",
                    target: str = "ppc", configs: int = 100,
                    baseline_sample: int = 20,
                    progress: Optional[Callable[[str], None]] = None,
                    ) -> dict:
    """Measure the sweep's shared-decode speedup; returns the document.

    The baseline is per-configuration ``annotate_trace`` on the
    ``general`` kernel -- the :class:`~repro.lvp.unit.LVPUnit` oracle
    -- over the same trace, each call re-decoding and re-walking
    everything.  (The default ``auto`` kernel runs the sweep's own
    staged passes, so timing it would measure only stage sharing.)  To
    keep the benchmark affordable the baseline times a deterministic
    sample of the grid and scales to the full count; the sweep side
    always evaluates the full grid.  Differential equality of every
    timed cell against its standalone run is asserted while measuring
    -- a fast sweep that drifted would be worthless.
    """
    from repro.harness.session import Session
    from repro.lvp.grid import sensitivity_grid
    from repro.trace.annotate import annotate_trace

    def _note(message: str) -> None:
        if progress is not None:
            progress(message)

    grid = sensitivity_grid()[:configs]
    if len(grid) < configs:
        raise ConfigError(
            f"sensitivity grid has only {len(grid)} configurations; "
            f"{configs} requested")
    session = Session(scale=scale, benchmarks=(bench,), metrics=False)
    trace = session.trace(bench, target)
    _note(f"trace ready: {bench}/{target}/{scale} "
          f"({len(trace):,} records)")

    sweep_start = time.perf_counter()
    cells = evaluate_configs(trace, grid)
    sweep_s = time.perf_counter() - sweep_start
    _note(f"sweep: {len(grid)} configs in {sweep_s:.2f}s")

    # Deterministic sample: every k-th config covers all families.
    step = max(1, len(grid) // max(1, baseline_sample))
    sample = list(range(0, len(grid), step))[:baseline_sample]
    base_start = time.perf_counter()
    for index in sample:
        annotated = annotate_trace(trace, grid[index], kernel="general")
        digest = _sha256(
            np.ascontiguousarray(annotated.outcomes).tobytes())
        if digest != cells[index].outcome_digest:
            raise AssertionError(
                f"sweep cell {grid[index].name} diverged from "
                "annotate_trace while benchmarking")
    sampled_s = time.perf_counter() - base_start
    baseline_s = sampled_s * (len(grid) / len(sample))
    _note(f"baseline: {len(sample)} general-path annotates in "
          f"{sampled_s:.2f}s (x{len(grid) / len(sample):.1f} scaled)")

    return {
        "schema": SWEEP_BENCH_SCHEMA_ID,
        "bench": bench,
        "target": target,
        "scale": scale,
        "configs": len(grid),
        "baseline_sample": len(sample),
        "baseline_s": round(baseline_s, 4),
        "sweep_s": round(sweep_s, 4),
        "speedup": round(baseline_s / sweep_s, 4) if sweep_s else 0.0,
        "trace_digest": trace_digest(trace),
    }


#: The minimum shared-decode speedup the acceptance gate requires.
SWEEP_SPEEDUP_FLOOR = 3.0


def validate_sweep_bench(document: dict) -> list[str]:
    """Schema violations in a BENCH_SWEEP document (empty = valid)."""
    errors: list[str] = []
    if document.get("schema") != SWEEP_BENCH_SCHEMA_ID:
        errors.append(f"schema must be {SWEEP_BENCH_SCHEMA_ID!r}, got "
                      f"{document.get('schema')!r}")
    for key in ("bench", "scale", "configs", "baseline_s", "sweep_s",
                "speedup"):
        if key not in document:
            errors.append(f"missing key {key!r}")
    configs = document.get("configs")
    if isinstance(configs, int) and configs < 100:
        errors.append(f"configs must be >= 100, got {configs}")
    for key in ("baseline_s", "sweep_s", "speedup"):
        value = document.get(key)
        if value is not None and (
                not isinstance(value, (int, float)) or value <= 0):
            errors.append(f"{key} must be a positive number, got {value!r}")
    return errors


def compare_sweep_bench(document: dict, baseline: dict,
                        threshold: float = 2.0,
                        floor: float = SWEEP_SPEEDUP_FLOOR) -> list[str]:
    """Regressions of *document* against *baseline* (empty = pass).

    Two gates: the absolute speedup floor (the acceptance criterion --
    shared decode must stay >= *floor* x per-config annotation), and a
    relative gate against the committed baseline's speedup (a drop by
    more than *threshold* x fails even above the floor).
    """
    regressions: list[str] = []
    speedup = float(document.get("speedup", 0.0))
    if speedup < floor:
        regressions.append(
            f"shared-decode speedup {speedup:.2f}x is below the "
            f"{floor:g}x floor")
    recorded = float(baseline.get("speedup", 0.0))
    if recorded and speedup * threshold < recorded:
        regressions.append(
            f"shared-decode speedup {speedup:.2f}x regressed more than "
            f"{threshold:g}x against the recorded {recorded:.2f}x")
    return regressions


def render_sweep_bench(document: dict) -> str:
    """One-paragraph summary of a BENCH_SWEEP document."""
    return (
        f"sweep bench: {document['configs']} configs over "
        f"{document['bench']}/{document['scale']}: "
        f"sweep {document['sweep_s']:.2f}s vs per-config general annotate "
        f"{document['baseline_s']:.2f}s (sampled x"
        f"{document.get('baseline_sample', 0)}) -> "
        f"{document['speedup']:.2f}x shared-decode speedup")


def write_sweep_bench(document: dict, path) -> None:
    """Atomically write a BENCH_SWEEP document."""
    write_atomic(path, json.dumps(document, indent=2, sort_keys=True)
                 + "\n")


def load_sweep_bench(path) -> dict:
    """Read a BENCH_SWEEP document (OSError/ValueError propagate)."""
    return json.loads(pathlib.Path(path).read_text())
