"""Regression tests for the locked ``LATEST`` run pointer.

``find_run("latest")`` used to scan the runs directory, which races
with concurrent run creation (a run directory appears before its
manifest is in place) and with pruning (an entry can vanish between
``iterdir`` and the manifest check).  The pointer file makes "latest"
an atomic, locked read; these tests pin the pointer's semantics and
replay the race the scan lost.
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib

import pytest

from repro.errors import JournalError
from repro.harness.journal import (
    RunJournal,
    _LATEST,
    find_run,
    publish_latest,
)
from repro.harness.sweep import SweepJournal, build_sweep_manifest
from repro.lvp import sensitivity_grid

MANIFEST = {"version": "t", "exhibits": [], "scale": "tiny",
            "benchmarks": ["b1"], "verify": True}


def _make_run(runs_dir: pathlib.Path, run_id: str) -> pathlib.Path:
    path = runs_dir / run_id
    path.mkdir(parents=True)
    (path / "manifest.json").write_text(json.dumps(MANIFEST))
    return path


class TestPointerSemantics:
    def test_publish_and_resolve(self, tmp_path):
        _make_run(tmp_path, "20260101-000000-1-000")
        publish_latest(tmp_path, "20260101-000000-1-000")
        assert (tmp_path / _LATEST).read_text().strip() == \
            "20260101-000000-1-000"
        assert find_run(tmp_path, "latest").name == \
            "20260101-000000-1-000"

    def test_move_forward_only(self, tmp_path):
        _make_run(tmp_path, "20260101-000000-1-000")
        _make_run(tmp_path, "20260102-000000-1-000")
        publish_latest(tmp_path, "20260102-000000-1-000")
        # The slow writer of an older run cannot move the pointer back.
        publish_latest(tmp_path, "20260101-000000-1-000")
        assert find_run(tmp_path, "latest").name == \
            "20260102-000000-1-000"

    def test_stale_target_is_overwritten(self, tmp_path):
        _make_run(tmp_path, "20260101-000000-1-000")
        publish_latest(tmp_path, "20260102-000000-1-000")  # no manifest
        publish_latest(tmp_path, "20260101-000000-1-000")
        assert find_run(tmp_path, "latest").name == \
            "20260101-000000-1-000"

    def test_dangling_pointer_falls_back_to_scan(self, tmp_path):
        _make_run(tmp_path, "20260101-000000-1-000")
        (tmp_path / _LATEST).write_text("20269999-000000-1-000\n")
        assert find_run(tmp_path, "latest").name == \
            "20260101-000000-1-000"

    def test_hostile_pointer_contents_are_ignored(self, tmp_path):
        run = _make_run(tmp_path, "20260101-000000-1-000")
        (tmp_path / _LATEST).write_text("../../etc/passwd\n")
        assert find_run(tmp_path, "latest") == run

    def test_no_pointer_no_runs_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no runs found"):
            find_run(tmp_path, "latest")

    def test_create_publishes_immediately(self, tmp_path):
        journal = RunJournal.create(tmp_path, "run-a", MANIFEST)
        journal.close()
        assert find_run(tmp_path, "latest").name == "run-a"

    def test_sweep_create_publishes_and_open_resolves(self, tmp_path):
        """Sweep runs share the pointer: ``SweepJournal.open(dir,
        "latest")`` must resolve through it, not a directory scan."""
        manifest = build_sweep_manifest("compress", "ppc", "tiny",
                                        sensitivity_grid()[:4],
                                        chunk_size=2, jobs=1)
        created = SweepJournal.create(tmp_path, "sweep-b", manifest)
        assert (tmp_path / _LATEST).read_text().strip() == "sweep-b"
        created.close()
        # A lexically newer directory that the scan would pick, but the
        # pointer does not name (a run mid-creation, manifest written).
        _make_run(tmp_path, "sweep-c")
        journal = SweepJournal.open(tmp_path, "latest")
        journal.close()
        assert journal.run_id == "sweep-b"


def _racer(runs_dir: str, run_id: str) -> None:
    publish_latest(runs_dir, run_id)


class TestPointerRace:
    def test_concurrent_publishers_converge_on_newest(self, tmp_path):
        """N processes publishing distinct run ids in arbitrary order
        must leave the pointer on the lexicographically newest one --
        the locked read-modify-write is what prevents a slow older
        writer landing last."""
        run_ids = [f"20260101-00000{i}-1-000" for i in range(8)]
        for run_id in run_ids:
            _make_run(tmp_path, run_id)
        # Publish in reverse so the oldest id is the last *started*
        # process; without the lock + move-forward rule it would
        # frequently win the final write.
        procs = [multiprocessing.Process(
            target=_racer, args=(str(tmp_path), run_id))
            for run_id in reversed(run_ids)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert find_run(tmp_path, "latest").name == run_ids[-1]

    def test_resolution_ignores_manifestless_directories(self, tmp_path):
        """The race the scan lost: a half-created run directory (no
        manifest yet) must never resolve as latest."""
        _make_run(tmp_path, "20260101-000000-1-000")
        publish_latest(tmp_path, "20260101-000000-1-000")
        (tmp_path / "20260102-000000-1-000").mkdir()  # mid-creation
        assert find_run(tmp_path, "latest").name == \
            "20260101-000000-1-000"
