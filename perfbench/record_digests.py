"""Record the output digests the benchmark checks every pass against.

Usage, from the root of a checkout whose outputs are trusted::

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``:

* ``paper_exhibits_sha256`` -- sha256 of the twelve rendered exhibits
  of ``experiment all`` at tiny scale, joined by blank lines;
* ``sweep_cells`` -- for every configuration any seed's lvp-sweep grid
  can hold (:func:`workloads.grid_universe`), one sha256 over its
  per-trace outcome digests in suite order;
* ``annotate`` -- the same for the nine paper and extension configs.

Every sweep cell is computed by the sweep engine and checked against
the ``general`` annotation kernel (the oracle) before it is recorded.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _trace_digests(key: tuple[str, str]) -> dict:
    """Oracle-checked digests of every recorded config on one trace."""
    from repro.harness.session import Session
    from repro.harness.sweep import evaluate_configs
    from repro.lvp.config import EXTENSION_CONFIGS, PAPER_CONFIGS
    from repro.trace.annotate import annotate_trace
    name, target = key
    trace = Session(scale=workloads.SCALE, benchmarks=(name,),
                    metrics=False).trace(name, target)
    configs = [c for members in workloads.grid_universe().values()
               for c in members]
    cells = {}
    for cell in evaluate_configs(trace, configs):
        oracle = annotate_trace(trace, cell.config, kernel="general")
        if workloads.outcome_digest(oracle) != cell.outcome_digest:
            raise SystemExit(f"{name}/{target} {cell.config.name}: the "
                             "sweep disagrees with the oracle")
        cells[cell.config.name] = cell.outcome_digest
    annotate = {}
    for config in PAPER_CONFIGS + EXTENSION_CONFIGS:
        digest = workloads.outcome_digest(annotate_trace(trace, config))
        oracle = annotate_trace(trace, config, kernel="general")
        if workloads.outcome_digest(oracle) != digest:
            raise SystemExit(f"{name}/{target} {config.name}: the default "
                             "kernel disagrees with the oracle")
        annotate[config.name] = digest
    return {"cells": cells, "annotate": annotate}


def _exhibits_digest() -> str:
    from repro.harness.experiments import EXPERIMENTS, run_experiments
    from repro.harness.session import Session
    results = run_experiments(list(EXPERIMENTS),
                              Session(scale=workloads.SCALE, metrics=False))
    text = "\n\n".join(result.text for result in results)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    keys = workloads.trace_keys()
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        per_trace = pool.map(_trace_digests, keys)
    document = {"paper_exhibits_sha256": _exhibits_digest()}
    for kind, field in (("sweep_cells", "cells"), ("annotate", "annotate")):
        names = per_trace[0][field]
        document[kind] = {
            name: workloads.combined([d[field][name] for d in per_trace])
            for name in sorted(names)}
    path = workloads.DIGESTS
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}: {len(document['sweep_cells'])} sweep configs, "
          f"{len(document['annotate'])} annotate configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
