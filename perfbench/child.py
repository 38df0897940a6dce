"""One child process of a benchmark run: a set-up round or one pass.

Usage (``run.py`` spawns it; the working directory is the run's
private scratch directory and ``PYTHONPATH`` points at ``src``)::

    python3 perfbench/child.py warmup|setup|pass WORKLOAD STATE SEED OUT [TRACE]

``warmup`` only imports the program (compiling its bytecode into the
run's private cache); ``setup`` makes the workload's set-up in
*STATE* and reports the CPU seconds the whole process used, imports
included; ``pass`` runs one pass over a prepared *STATE*,
traced when *TRACE* is ``1``.  The result is written to *OUT* as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str]) -> dict:
    mode, workload, state, seed = argv[0], argv[1], argv[2], int(argv[3])
    setup, run = workloads.WORKLOADS[workload]
    if mode == "warmup":
        import repro.cli  # noqa: F401
        import repro.harness.sweep  # noqa: F401
        return {}
    if mode == "setup":
        os.makedirs(state, exist_ok=True)
        setup(state, seed)
        return {"setup_s": workloads.cpu_seconds()}
    tracer = None
    if argv[5:] == ["1"]:
        import tracer as tracing
        spans = os.path.abspath("spans")
        os.makedirs(spans, exist_ok=True)
        tracer = tracing.Tracer(spans)
        tracing.install(tracer)
    out = run(state, seed)
    result = {"wall_s": out.wall_s, "cpu_s": out.cpu_s, "insn": out.insn,
              "attempted": out.attempted, "failed": out.failed,
              "problems": out.problems, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracing.layer_report(tracer, out.start, out.end)
    return result


if __name__ == "__main__":
    outcome = main(sys.argv[1:])
    with open(sys.argv[5], "w") as handle:
        json.dump(outcome, handle)
