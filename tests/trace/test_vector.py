"""Differential suite: the staged (``vector``) annotation kernel vs the
general :class:`~repro.lvp.unit.LVPUnit` oracle.

The ``vector`` tier runs the staged kernels of
:mod:`repro.trace.kernels` (a predictor pass, an LCT counter pass and a
CVU replay over only the constant-classified loads) for every
configuration without audit, fault hook or profile filter.  It exists
only for speed: on every stock config, every workload and both targets
its outcome array and every :class:`~repro.lvp.unit.LVPStats` field
must equal the general replay's.  Runs that need the per-event unit
object must be routed to the general path, or refused when the staged
tier is forced.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.lvp.config import (
    EXTENSION_CONFIGS,
    GSHARE,
    LIMIT,
    PAPER_CONFIGS,
    PERFECT,
    SIMPLE,
    STRIDE,
)
from repro.lvp.unit import LVPStats
from repro.sim import run_program
from repro.trace.annotate import (
    annotate_trace,
    resolve_kernel,
    vector_eligible,
)
from repro.workloads.suite import NAMES, get_benchmark

#: Every stock config -- derived, not listed, so a new stock config
#: automatically joins the suite.
STOCK = PAPER_CONFIGS + EXTENSION_CONFIGS
ELIGIBLE = tuple(config for config in STOCK if vector_eligible(config))
#: A profile filter takes any predictor family off the staged tier.
INELIGIBLE = tuple(
    dataclasses.replace(config, profile_filter=frozenset({0}))
    for config in (PERFECT, STRIDE, GSHARE, LIMIT))

#: Every workload on both targets; the ppc (default target) ids are the
#: bare benchmark names.
TRACES = [pytest.param(name, target,
                       id=name if target == "ppc" else f"{name}-{target}")
          for name in NAMES for target in ("ppc", "alpha")]


def assert_annotations_equal(a, b):
    assert (a.outcomes == b.outcomes).all()
    for field in dataclasses.fields(LVPStats):
        assert getattr(a.stats, field.name) == \
            getattr(b.stats, field.name), field.name


@pytest.fixture(scope="module")
def tiny_traces():
    """Lazily built, memoized tiny traces for the whole suite."""
    cache = {}

    def get(name, target="ppc"):
        if (name, target) not in cache:
            program = get_benchmark(name).build_program(target, "tiny")
            cache[name, target] = run_program(
                program, name=name, target=target).trace
        return cache[name, target]

    return get


class TestEligibility:
    def test_stock_eligible_set_is_nonempty(self):
        # Every stock config, Perfect and the deep-history Limit
        # included, runs on the staged tier.
        assert ELIGIBLE == STOCK

    @pytest.mark.parametrize("config", INELIGIBLE, ids=lambda c: c.name)
    def test_ineligible(self, config):
        assert not vector_eligible(config)

    def test_audit_and_fault_hook_disqualify(self):
        hook = lambda *a: None  # noqa: E731
        assert not vector_eligible(SIMPLE, audit=True)
        assert not vector_eligible(SIMPLE, fault_hook=hook)
        for audit, fault_hook in ((True, None), (False, hook)):
            with pytest.raises(ConfigError, match="vector"):
                resolve_kernel("vector", SIMPLE, audit, fault_hook)

    @pytest.mark.parametrize("config", INELIGIBLE, ids=lambda c: c.name)
    def test_forced_vector_on_ineligible_config_refused(self, config):
        with pytest.raises(ConfigError, match="vector"):
            resolve_kernel("vector", config, False, None)

    def test_auto_prefers_vector(self):
        for config in STOCK:
            assert resolve_kernel("auto", config, False, None) == "vector"
            assert resolve_kernel(None, config, False, None) == "vector"
        for config in INELIGIBLE:
            assert resolve_kernel("auto", config, False, None) == "general"
        hook = lambda *a: None  # noqa: E731
        assert resolve_kernel("auto", SIMPLE, True, None) == "general"
        assert resolve_kernel("auto", SIMPLE, False, hook) == "general"

    def test_env_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANNOTATE_KERNEL", "vector")
        assert resolve_kernel("general", SIMPLE, False, None) == "vector"


class TestRetiredMonoKernel:
    """``mono`` named a single-loop kernel that the staged tier
    replaced; it is now an unknown kernel like any other."""

    def test_argument_is_unknown(self, tiny_traces):
        with pytest.raises(ConfigError, match="unknown annotation kernel"):
            annotate_trace(tiny_traces("grep"), LIMIT, kernel="mono")

    def test_env_is_unknown(self, monkeypatch, tiny_traces):
        monkeypatch.setenv("REPRO_ANNOTATE_KERNEL", "mono")
        with pytest.raises(ConfigError, match="unknown annotation kernel"):
            annotate_trace(tiny_traces("grep"), LIMIT)

    def test_cli_env_exits_2(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_ANNOTATE_KERNEL", "mono")
        assert main(["suite"]) == 2
        assert "REPRO_ANNOTATE_KERNEL='mono'" in capsys.readouterr().err


@pytest.mark.parametrize("name", NAMES)
def test_vector_bit_identical_simple(tiny_traces, name):
    """Every benchmark, the paper's Simple config: vector == general."""
    trace = tiny_traces(name)
    general = annotate_trace(trace, SIMPLE, kernel="general")
    vector = annotate_trace(trace, SIMPLE, kernel="vector")
    assert_annotations_equal(general, vector)


@pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.name)
@pytest.mark.parametrize("name,target", TRACES)
def test_vector_bit_identical_all_eligible_configs(tiny_traces, name,
                                                   target, config):
    """Every workload x both targets x every stock config."""
    trace = tiny_traces(name, target)
    general = annotate_trace(trace, config, kernel="general")
    vector = annotate_trace(trace, config, kernel="vector")
    assert_annotations_equal(general, vector)


@pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.name)
def test_auto_routes_to_vector_and_matches(tiny_traces, config):
    """The production default (auto) runs the vector tier on eligible
    configs and stays bit-identical to the oracle."""
    trace = tiny_traces("xlisp")
    general = annotate_trace(trace, config, kernel="general")
    auto = annotate_trace(trace, config)
    assert_annotations_equal(general, auto)


def test_vector_on_cached_readonly_trace(tmp_path, tiny_traces):
    """The vector kernel annotates a zero-copy mmap-backed trace
    (read-only columns) without materializing it."""
    from repro.harness.cache import TraceCache

    trace = tiny_traces("grep")
    cache = TraceCache(tmp_path)
    cache.store(trace, "tiny")
    mapped = cache.load("grep", trace.target, "tiny")
    assert not mapped.value.flags.writeable
    general = annotate_trace(trace, SIMPLE, kernel="general")
    vector = annotate_trace(mapped, SIMPLE, kernel="vector")
    assert_annotations_equal(general, vector)
