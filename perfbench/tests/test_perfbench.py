"""The benchmark's own tests.

Run from the root of the checkout (about two minutes: the traced-run
tests execute every workload once, traced and untraced)::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

KNOBS = (
    "REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL", "REPRO_MODEL_ENGINE",
    "REPRO_SENTINEL_RATE", "REPRO_SENTINEL_SEED", "REPRO_SABOTAGE",
    "REPRO_TRANSIENT", "REPRO_TIER_FAULT", "REPRO_PARALLEL_HANG",
    "REPRO_PARALLEL_CRASH", "REPRO_JOURNAL_CRASH_AFTER",
    "REPRO_TRACE_CACHE", "REPRO_METRICS", "REPRO_JOBS",
)


def _copy_checkout(destination, with_program: bool = True) -> str:
    """The files a benchmark checkout holds (optionally without src/)."""
    root = os.path.join(destination, "checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    shutil.copytree(BENCH, os.path.join(root, "perfbench"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"),
                        ignore=ignore)
    return root


def _snapshot(root: str) -> set:
    return {os.path.relpath(os.path.join(path, name), root)
            for path, dirs, files in os.walk(root)
            for name in dirs + files}


def _run(root: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_MODEL_ENGINE="reference",
               REPRO_SABOTAGE="grep")
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)


# ---------------------------------------------------------------------------
# Held-out grids.
# ---------------------------------------------------------------------------
def test_seed_zero_is_the_sensitivity_grid():
    from repro.lvp.grid import sensitivity_grid
    assert workloads.sweep_grid(0) == sensitivity_grid()


@pytest.mark.parametrize("seed", [1, 2, 977])
def test_heldout_grid_keeps_size_and_cost_classes(seed):
    from repro.harness.sweep import lct_key, predictor_key
    base = workloads.sweep_grid(0)
    grid = workloads.sweep_grid(seed)
    assert grid == workloads.sweep_grid(seed)  # deterministic per seed
    assert grid != base
    assert len({c.name for c in grid}) == len(grid) == len(base)

    def classes(configs):
        return collections.Counter(workloads._class_of(c) for c in configs)

    assert classes(grid) == classes(base)
    for key in (predictor_key, lct_key):
        assert len({key(c) for c in grid}) == len({key(c) for c in base})
    universe = {c.name for members in workloads.grid_universe().values()
                for c in members}
    assert {c.name for c in grid} <= universe


def test_every_cost_class_can_be_held_out():
    base = {c.name for c in workloads.sweep_grid(0)}
    for klass, members in workloads.grid_universe().items():
        assert {c.name for c in members} - base, klass


def test_every_grid_config_has_a_recorded_digest():
    with open(workloads.DIGESTS) as handle:
        recorded = json.load(handle)
    universe = {c.name for members in workloads.grid_universe().values()
                for c in members}
    assert universe == set(recorded["sweep_cells"])
    assert len(recorded["annotate"]) == 9


# ---------------------------------------------------------------------------
# Pinned environment.
# ---------------------------------------------------------------------------
def test_child_env_drops_every_inherited_knob(tmp_path):
    base = {knob: "x" for knob in KNOBS}
    base.update(PATH="/bin", REPRO_UNKNOWN_FUTURE_KNOB="1")
    env, scrubbed = run.child_env(base, str(tmp_path))
    assert not [name for name in env if name.startswith("REPRO_")]
    assert set(scrubbed) == set(KNOBS) | {"REPRO_UNKNOWN_FUTURE_KNOB"}
    assert env["PATH"] == "/bin"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == os.path.join(
        run.ROOT, "src")


# ---------------------------------------------------------------------------
# Wall-clock attribution.
# ---------------------------------------------------------------------------
def test_wall_shares_add_up_and_waiting_yields_to_workers():
    segments = [
        (0.0, 1.0, "session", False),
        (1.0, 2.0, "parallel", False),   # the parent waits on the pool,
        (2.0, 3.0, "journal", False),    # journals a finished shard,
        (3.0, 5.0, "parallel", False),   # and waits again
        (1.5, 4.0, "model.ppc", True),
        (2.0, 4.5, "annotate.general", True),
        (6.0, 7.0, "render", False),     # 5..6 is unattributed
    ]
    shares, idle = tracer.wall_shares(segments, 0.0, 7.0)
    assert sum(shares.values()) == pytest.approx(6.0)
    assert idle == pytest.approx(1.0)
    assert shares["parallel"] == pytest.approx(0.5 + 0.5)  # idle pool only
    assert shares["journal"] == pytest.approx(1.0 / 3)
    assert shares["model.ppc"] == pytest.approx(0.5 + 1 / 3 + 0.5)
    assert shares["annotate.general"] == pytest.approx(1 / 3 + 0.5 + 0.5)


def test_serial_shares_are_exclusive_self_times():
    segments = [(0.0, 1.0, "render", False), (1.0, 3.0, "model.ppc", False),
                (3.0, 3.5, "render", False)]
    shares, idle = tracer.wall_shares(segments, 0.0, 4.0)
    assert shares == pytest.approx({"render": 1.5, "model.ppc": 2.0})
    assert idle == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# End-to-end runs in a copied checkout.
# ---------------------------------------------------------------------------
def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path, with_program=False)
    done = _run(root, "--workload", "lvp-sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_plain_run_reports_every_end_to_end_metric(tmp_path):
    root = _copy_checkout(tmp_path)
    done = _run(root, "--workload", "lvp-sweep", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


#: The layer group expected to have the largest self time per workload.
_LARGEST = {"paper-cold": "model", "lvp-sweep": "sweep"}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_is_hermetic_and_accounts_for_the_wall(tmp_path,
                                                          workload):
    root = _copy_checkout(tmp_path)
    before = _snapshot(root)
    done = _run(root, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert _snapshot(root) == before
    assert "dropped inherited knobs: REPRO_MODEL_ENGINE, REPRO_SABOTAGE" \
        in done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    wall = metrics["traced_wall_s"]
    self_sum = sum(metrics[name] for name in tracer.SELF_METRICS)
    assert self_sum + metrics["unattributed_s"] == pytest.approx(wall,
                                                                 rel=1e-9)
    assert 0 <= metrics["unattributed_s"] <= \
        tracer.UNATTRIBUTED_TOLERANCE * wall
    assert metrics["guard.demotions"] == 0
    if workload in _LARGEST:
        groups = collections.defaultdict(float)
        for name in tracer.SELF_METRICS:
            groups[name.split(".")[0]] += metrics[name]
        groups["sweep"] += groups.pop("kernels", 0.0)
        assert max(groups, key=groups.get) == _LARGEST[workload]
