"""The benchmark's three workloads, as set-up and one-pass functions.

Every function here runs inside a fresh child process (see
``child.py``) whose working directory is a private scratch directory;
*state* is that workload's prepared-state directory.  ``setup_*``
makes what a pass needs (imports, a warm trace cache, the grid) and
``run_*`` performs one timed pass, checks its outputs against the
digests recorded in ``digests.json`` and returns a :class:`PassOutput`.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import time
from dataclasses import dataclass, field

SCALE = "tiny"
TARGETS = ("ppc", "alpha")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")

#: Fields that fix a configuration's sweep cost (its stage-A kernel);
#: held-out grids keep them and redraw only the sizing fields.
CLASS_FIELDS = ("predictor", "index_mode", "selection", "history_depth")
SIZING_FIELDS = ("lvpt_entries", "lct_entries", "lct_bits", "cvu_entries",
                 "ghr_bits")

#: The values a held-out grid draws each sizing field from: the
#: sensitivity grid's own values plus ones beside or between them.
SIZING_POOLS = {
    "lvpt_entries": (256, 512, 1024, 2048, 4096),
    "lct_entries": (256, 512, 1024),
    "lct_bits": (1, 2, 3),
    "cvu_entries": (0, 32, 64, 128),
    "ghr_bits": (4, 6, 8),
}

#: Exhibit footnote line naming an omitted benchmark.
_FOOTNOTE = re.compile(r"^  \+ (\S+) \[", re.MULTILINE)


@dataclass
class PassOutput:
    """One pass: its timed window and what it produced."""

    start: float
    end: float
    cpu_s: float = 0.0
    insn: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def cpu_seconds() -> float:
    """CPU seconds (user + system) this process and its reaped children
    have used.  The kernel leaves out steal time -- the time the host
    gave this machine's virtual CPUs to another guest."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def trace_keys() -> list[tuple[str, str]]:
    from repro.workloads.suite import BENCHMARKS
    return [(bench.name, target) for bench in BENCHMARKS
            for target in TARGETS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome_digest(annotated) -> str:
    """sha256 of one annotation's per-record outcome bytes (the digest
    the sweep engine records per cell)."""
    return _sha256(annotated.outcomes.tobytes())


def combined(digests) -> str:
    """One digest over per-trace digests, in suite order."""
    return _sha256("\n".join(digests).encode())


def _recorded() -> dict:
    with open(DIGESTS) as handle:
        return json.load(handle)


def fill_cache(cache_dir: str) -> None:
    """Generate and verify every tiny trace into a v2 trace cache."""
    from repro.harness.session import Session
    session = Session(scale=SCALE, cache_dir=cache_dir, metrics=False)
    for name, target in trace_keys():
        session.trace(name, target)
    if session.failures:
        raise RuntimeError(f"cache fill failed: {session.failures}")


# ---------------------------------------------------------------------------
# The LVP design-space grid.
# ---------------------------------------------------------------------------
def _class_of(config) -> tuple:
    return tuple(getattr(config, name) for name in CLASS_FIELDS)


def class_dimensions() -> dict[tuple, dict[str, list]]:
    """Per cost class of the sensitivity grid (in grid order), the
    values each field takes in that class.  Every class is the full
    cross product of these values."""
    from repro.lvp.grid import sensitivity_grid
    classes: dict[tuple, dict[str, list]] = {}
    for config in sensitivity_grid():
        dimensions = classes.setdefault(
            _class_of(config),
            {name: [] for name in CLASS_FIELDS + SIZING_FIELDS})
        for name, values in dimensions.items():
            if getattr(config, name) not in values:
                values.append(getattr(config, name))
    return classes


def grid_universe() -> dict[tuple, list]:
    """Per cost class, every configuration any seed's grid can hold:
    each sizing field the class varies ranges over its whole pool."""
    from repro.lvp.grid import expand_grid
    universe = {}
    for klass, dimensions in class_dimensions().items():
        dimensions = {name: (SIZING_POOLS[name] if len(values) > 1
                             else values)
                      for name, values in dimensions.items()}
        universe[klass] = expand_grid(dimensions)
    return universe


def sweep_grid(seed: int) -> list:
    """Seed 0: ``sensitivity_grid()``.  Any other seed: a held-out grid
    built through ``expand_grid`` with the same shape per cost class --
    each sizing field the class varies takes as many values as in the
    sensitivity grid, drawn (seeded) from its pool.  Every seed so has
    the same number of cells, stage-A keys and LCT keys."""
    from repro.lvp.grid import expand_grid, sensitivity_grid
    if seed == 0:
        return sensitivity_grid()
    rng = random.Random(seed)
    grid = []
    for dimensions in class_dimensions().values():
        drawn = {}
        for name, values in dimensions.items():
            if len(values) > 1:
                values = sorted(rng.sample(SIZING_POOLS[name],
                                           len(values)))
            drawn[name] = values
        grid += expand_grid(drawn)
    return grid


# ---------------------------------------------------------------------------
# paper-cold / paper-warm-j2.
# ---------------------------------------------------------------------------
def _paper_units():
    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.parallel import units_for_exhibits
    from repro.workloads.suite import BENCHMARKS
    return units_for_exhibits(list(EXPERIMENTS),
                              [bench.name for bench in BENCHMARKS])


def _paper_output(start: float, end: float, cpu_s: float, text: str,
                  lengths: dict) -> PassOutput:
    """Check the rendered exhibits; count instructions and failures.

    Operations are the work units plus the exhibit render itself; a
    unit fails with its benchmark (footnoted in the text), the render
    fails on a digest mismatch.
    """
    units = _paper_units()
    omitted = set(_FOOTNOTE.findall(text))
    out = PassOutput(start, end, cpu_s, attempted=len(units) + 1)
    out.failed = sum(unit.benchmark in omitted for unit in units)
    if omitted:
        out.problems.append(f"benchmarks omitted: {sorted(omitted)}")
    digest = _sha256(text.encode())
    if digest != _recorded()["paper_exhibits_sha256"]:
        out.failed += 1
        out.problems.append(f"exhibit digest mismatch: {digest}")
    out.insn = sum(lengths.get((unit.benchmark, unit.target), 0)
                   for unit in units if unit.stage != "trace")
    return out


def setup_paper_cold(state: str, seed: int) -> None:
    import repro.harness.experiments  # noqa: F401


def run_paper_cold(state: str, seed: int) -> PassOutput:
    from repro.harness.experiments import EXPERIMENTS, run_experiments
    from repro.harness.session import Session
    session = Session(scale=SCALE, metrics=False)
    cpu, start = cpu_seconds(), time.perf_counter()
    results = run_experiments(list(EXPERIMENTS), session, jobs=1)
    end, cpu = time.perf_counter(), cpu_seconds() - cpu
    text = "\n\n".join(result.text for result in results)
    lengths = {key: len(trace) for key, trace in session._traces.items()}
    return _paper_output(start, end, cpu, text, lengths)


def setup_paper_warm(state: str, seed: int) -> None:
    import repro.cli  # noqa: F401
    fill_cache(os.path.join(state, "cache"))


def run_paper_warm(state: str, seed: int) -> PassOutput:
    from repro.cli import main
    from repro.harness.cache import TraceCache
    cache_dir = os.path.join(state, "cache")
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    argv = ["experiment", "all", "--scale", SCALE, "--jobs", "2",
            "--runs-dir", os.path.abspath("runs")]
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu, start = cpu_seconds(), time.perf_counter()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    end, cpu = time.perf_counter(), cpu_seconds() - cpu
    text = stdout.getvalue()
    if text.endswith("\n\n"):
        text = text[:-2]
    cache = TraceCache(cache_dir)
    lengths = {(name, target): len(cache.load(name, target, SCALE))
               for name, target in trace_keys()}
    out = _paper_output(start, end, cpu, text, lengths)
    if code != 0:
        out.failed = max(out.failed, 1)
        out.problems.append(f"repro experiment exited {code}: "
                            + stderr.getvalue()[-400:])
    return out


# ---------------------------------------------------------------------------
# lvp-sweep.
# ---------------------------------------------------------------------------
def setup_lvp_sweep(state: str, seed: int) -> None:
    import repro.harness.sweep  # noqa: F401
    fill_cache(os.path.join(state, "cache"))
    sweep_grid(seed)


def run_lvp_sweep(state: str, seed: int) -> PassOutput:
    from repro.harness.cache import TraceCache
    from repro.harness.sweep import run_sweep
    from repro.lvp.config import EXTENSION_CONFIGS, PAPER_CONFIGS
    from repro.trace.annotate import annotate_trace
    cache_dir = os.path.join(state, "cache")
    grid = sweep_grid(seed)
    configs = PAPER_CONFIGS + EXTENSION_CONFIGS
    cache = TraceCache(cache_dir)
    cells: dict[str, list[str]] = collections.defaultdict(list)
    annotations: dict[str, list[str]] = collections.defaultdict(list)
    insn = 0
    cpu, start = cpu_seconds(), time.perf_counter()
    for name, target in trace_keys():
        trace = cache.load(name, target, SCALE)
        document = run_sweep(name, grid, target=target, scale=SCALE,
                             jobs=1, cache_dir=cache_dir)
        for cell in document["cells"]:
            cells[cell["name"]].append(cell["outcome_digest"])
        for config in configs:
            annotations[config.name].append(
                outcome_digest(annotate_trace(trace, config)))
        insn += len(trace) * (len(grid) + len(configs))
    end, cpu = time.perf_counter(), cpu_seconds() - cpu
    traces = len(trace_keys())
    out = PassOutput(start, end, cpu, insn=insn,
                     attempted=traces * (len(grid) + len(configs)))
    recorded = _recorded()
    for kind, got, want in (("sweep", cells, recorded["sweep_cells"]),
                            ("annotate", annotations,
                             recorded["annotate"])):
        for config_name, digests in got.items():
            if combined(digests) != want.get(config_name):
                out.failed += traces
                out.problems.append(f"{kind} digest mismatch: "
                                    f"{config_name}")
    return out


WORKLOADS = {
    "paper-cold": (setup_paper_cold, run_paper_cold),
    "paper-warm-j2": (setup_paper_warm, run_paper_warm),
    "lvp-sweep": (setup_lvp_sweep, run_lvp_sweep),
}
