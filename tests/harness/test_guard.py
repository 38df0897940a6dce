"""Tests for the tier guard: divergence sentinels + degradation ladder.

The differential classes drive the real CLI in subprocesses (like the
resume suite): a run with a planted fast-tier divergence must demote,
footnote the demotion, and -- with the "Tier notes" block stripped --
be byte-identical to an undisturbed run, serially, under ``--jobs 4``,
and across a crash/``--resume`` cycle.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.errors import TierDivergenceError
from repro.harness.guard import (
    DEFAULT_SENTINEL_RATE,
    TIER_LADDER,
    TierDemotion,
    sentinel_rate,
    sentinel_samples,
    strip_tier_notes,
    tier_fault_matches,
    tier_notes,
)
from repro.harness.session import Session

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def _experiment(cwd, *extra, extra_env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "fig6",
         "--scale", "tiny", "--benchmarks", "grep,compress", *extra],
        capture_output=True, text=True, env=_env(extra_env),
        cwd=cwd, timeout=600)


@pytest.fixture(autouse=True)
def _clean_knobs(monkeypatch):
    for name in ("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL",
                 "REPRO_MODEL_ENGINE", "REPRO_TIER_FAULT",
                 "REPRO_SENTINEL_RATE", "REPRO_SENTINEL_SEED",
                 "REPRO_TRACE_CACHE"):
        monkeypatch.delenv(name, raising=False)


class TestSentinelSampling:
    def test_label_keyed_and_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "0.5")
        labels = [f"bench{i}/trace/ppc" for i in range(200)]
        first = [sentinel_samples(label) for label in labels]
        second = [sentinel_samples(label) for label in labels]
        assert first == second
        assert any(first) and not all(first)

    def test_rate_bounds(self, monkeypatch):
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "0")
        assert not sentinel_samples("x")
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "1")
        assert sentinel_samples("x")
    def test_malformed_rate_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "not-a-number")
        with pytest.warns(RuntimeWarning,
                          match="REPRO_SENTINEL_RATE='not-a-number'"):
            assert sentinel_rate() == DEFAULT_SENTINEL_RATE
        with pytest.warns(RuntimeWarning, match="using the default"):
            assert isinstance(sentinel_samples("x"), bool)
        monkeypatch.delenv("REPRO_SENTINEL_RATE")
        assert sentinel_rate() == DEFAULT_SENTINEL_RATE

    def test_seed_changes_the_sample(self, monkeypatch):
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "0.5")
        labels = [f"bench{i}/trace/ppc" for i in range(200)]
        base = [sentinel_samples(label) for label in labels]
        monkeypatch.setenv("REPRO_SENTINEL_SEED", "99")
        assert [sentinel_samples(label) for label in labels] != base

    def test_tier_fault_matching(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_FAULT", "grep")
        assert tier_fault_matches("grep", "trace")
        assert not tier_fault_matches("grep", "model")
        assert not tier_fault_matches("compress", "trace")
        monkeypatch.setenv("REPRO_TIER_FAULT", "grep:model")
        assert tier_fault_matches("grep", "model")


class TestTierNotes:
    DEMOTION = TierDemotion(
        benchmark="grep", stage="trace", target="ppc",
        unit="grep/trace/ppc", from_tier="compiled", to_tier="interp",
        reason="x" * 100)

    def test_notes_strip_to_nothing(self):
        text = "Figure 6\n========\nrows" + tier_notes([self.DEMOTION])
        assert "Tier notes:" in text
        assert strip_tier_notes(text) == "Figure 6\n========\nrows"

    def test_notes_sorted_and_deduped(self):
        other = TierDemotion(
            benchmark="compress", stage="model", target="alpha",
            unit="compress/model/alpha", from_tier="fast",
            to_tier="reference", reason="r")
        block = tier_notes([self.DEMOTION, other, self.DEMOTION])
        notes = block.splitlines()[3:]  # "", "", "Tier notes:", notes...
        assert notes.count(self.DEMOTION.note) == 1
        assert notes == sorted(notes) and len(notes) == 2

    def test_long_reasons_are_trimmed(self):
        assert "..." in self.DEMOTION.note
        assert len(self.DEMOTION.note) < 200


class TestSentinelCatchesCorruption:
    def test_corrupted_compiled_block_is_demoted(self, monkeypatch):
        """A compiled tier that lies is caught by a 100% sentinel and
        the unit is served the oracle's exact answer."""
        import numpy as np

        from repro.sim import functional

        real = functional.run_program

        def corrupting(program, **kwargs):
            result = real(program, **kwargs)
            if kwargs.get("engine") == "compiled":
                loads = np.nonzero(result.trace.is_load)[0]
                result.trace.value[loads[0]] ^= np.uint64(1)
            return result

        monkeypatch.setattr(functional, "run_program", corrupting)
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "1.0")
        session = Session(scale="tiny", benchmarks=("grep",))
        trace = session.trace("grep", "ppc")
        assert len(session.demotions) == 1
        demotion = session.demotions[0]
        assert (demotion.from_tier, demotion.to_tier) == \
            TIER_LADDER["trace"]
        assert "diverged" in demotion.reason
        from repro.workloads.suite import get_benchmark
        oracle = real(get_benchmark("grep").build_program("ppc", "tiny"),
                      name="grep", target="ppc", engine="interp")
        assert np.array_equal(trace.value, oracle.trace.value)

    def test_fast_tier_crash_is_demoted_and_retried(self, monkeypatch):
        from repro.sim import functional

        real = functional.run_program

        def crashing(program, **kwargs):
            if kwargs.get("engine") == "compiled":
                raise ValueError("compiled tier exploded")
            return real(program, **kwargs)

        monkeypatch.setattr(functional, "run_program", crashing)
        session = Session(scale="tiny", benchmarks=("grep",))
        trace = session.trace("grep", "ppc")
        assert trace is not None
        assert len(session.demotions) == 1
        assert "ValueError" in session.demotions[0].reason

    def test_divergence_error_carries_structure(self):
        exc = TierDivergenceError("trace", "grep/trace/ppc",
                                  ["field 'a' differs"] * 5)
        assert exc.stage == "trace"
        assert exc.unit == "grep/trace/ppc"
        assert len(exc.differences) == 5
        assert "2 more" in str(exc)

    def test_pinned_tier_disables_the_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_FAULT", "grep:trace")
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        session = Session(scale="tiny", benchmarks=("grep",))
        session.trace("grep", "ppc")
        assert session.demotions == []

    @pytest.mark.parametrize("stage", sorted(TIER_LADDER))
    def test_auto_knob_keeps_the_guard(self, monkeypatch, stage):
        """``auto`` is the default tier choice, not a pin."""
        from repro.lvp.config import SIMPLE
        for name in ("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL",
                     "REPRO_MODEL_ENGINE"):
            monkeypatch.setenv(name, "auto")
        monkeypatch.setenv("REPRO_TIER_FAULT", f"grep:{stage}")
        session = Session(scale="tiny", benchmarks=("grep",))
        session.ppc_result("grep", lvp=SIMPLE)
        assert [d.stage for d in session.demotions] == [stage]

    def test_forced_fault_demotes_identically_across_sessions(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_FAULT", "grep:trace")
        traces = []
        for _ in range(2):
            session = Session(scale="tiny", benchmarks=("grep",))
            traces.append(session.trace("grep", "ppc"))
            assert [d.unit for d in session.demotions] == \
                ["grep/trace/ppc"]
        assert len(traces[0]) == len(traces[1])


class TestDemotionByteIdentity:
    """Demoted runs must print the oracle's bytes plus only the notes."""

    @pytest.fixture(scope="class")
    def control(self, tmp_path_factory):
        cwd = tmp_path_factory.mktemp("guard-control")
        proc = _experiment(cwd)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_serial_demotion_matches_oracle_run(self, tmp_path, control):
        proc = _experiment(
            tmp_path, extra_env={"REPRO_TIER_FAULT": "grep:trace"})
        assert proc.returncode == 0, proc.stderr
        assert "Tier notes:" in proc.stdout
        assert "trace tier demoted compiled -> interp" in proc.stdout
        assert strip_tier_notes(proc.stdout) == control

    def test_parallel_demotion_matches_oracle_run(self, tmp_path, control):
        proc = _experiment(
            tmp_path, "--jobs", "4",
            extra_env={"REPRO_TIER_FAULT": "grep:trace"})
        assert proc.returncode == 0, proc.stderr
        assert "Tier notes:" in proc.stdout
        assert strip_tier_notes(proc.stdout) == control

    def test_resume_after_kill_replays_demotions(self, tmp_path, control):
        crashed = _experiment(tmp_path, extra_env={
            "REPRO_TIER_FAULT": "grep:trace",
            "REPRO_JOURNAL_CRASH_AFTER": "1",
        })
        assert crashed.returncode == 23
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "experiment",
             "--resume", "latest"],
            capture_output=True, text=True, cwd=tmp_path, timeout=600,
            env=_env({"REPRO_TIER_FAULT": "grep:trace"}))
        assert resumed.returncode == 0, resumed.stderr
        assert "Tier notes:" in resumed.stdout
        assert strip_tier_notes(resumed.stdout) == control
        journal = next((tmp_path / ".repro" / "runs").glob(
            "*/journal.jsonl")).read_text()
        assert '"demoted"' in journal
