"""Regression checks for the configs of the retired ``mono`` kernel.

Simple, Constant and Limit -- the PC-indexed history configurations a
dedicated single-loop kernel used to annotate -- now run on the staged
(``vector``) tier like every other configuration without audit, fault
hook or profile filter, and ``mono`` is an unknown kernel name.  These
checks follow that kernel's old cases onto its successor; the full
staged-vs-general differential (every stock config, workload and
target) lives in ``test_vector.py``.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.lvp.config import (
    CONSTANT,
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
    KERNELS,
    annotate_trace,
    resolve_kernel,
    vector_eligible,
)
from repro.workloads.suite import NAMES, get_benchmark

#: The configs the retired kernel served.
SERVED = (SIMPLE, CONSTANT, LIMIT)
#: Any predictor family goes staged now; a profile filter is what keeps
#: a config on the general path.
INELIGIBLE = tuple(
    dataclasses.replace(config, profile_filter=frozenset({0}))
    for config in (PERFECT, STRIDE, GSHARE))


def assert_annotations_equal(a, b):
    assert (a.outcomes == b.outcomes).all()
    for field in dataclasses.fields(LVPStats):
        assert getattr(a.stats, field.name) == \
            getattr(b.stats, field.name), field.name


class TestEligibility:
    @pytest.mark.parametrize("config", SERVED, ids=lambda c: c.name)
    def test_eligible(self, config):
        assert vector_eligible(config)

    @pytest.mark.parametrize("config", INELIGIBLE, ids=lambda c: c.name)
    def test_ineligible(self, config):
        assert not vector_eligible(config)

    def test_audit_and_fault_hook_disqualify(self):
        assert not vector_eligible(SIMPLE, audit=True)
        assert not vector_eligible(SIMPLE, fault_hook=lambda *a: None)


class TestKernelResolution:
    def test_kernels_tuple(self):
        assert KERNELS == ("auto", "general", "vector")

    @pytest.mark.parametrize("config", INELIGIBLE, ids=lambda c: c.name)
    def test_auto_falls_back_to_general(self, config):
        assert resolve_kernel("auto", config, False, None) == "general"

    def test_auto_falls_back_for_audit_and_hook(self):
        assert resolve_kernel("auto", SIMPLE, True, None) == "general"
        hook = lambda *a: None  # noqa: E731
        assert resolve_kernel("auto", SIMPLE, False, hook) == "general"

    @pytest.mark.parametrize("config", INELIGIBLE, ids=lambda c: c.name)
    def test_forced_mono_on_ineligible_config_refused(self, config):
        with pytest.raises(ConfigError,
                           match="unknown annotation kernel 'mono'"):
            resolve_kernel("mono", config, False, None)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_kernel("simd", SIMPLE, False, None)

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANNOTATE_KERNEL", "general")
        assert resolve_kernel("vector", SIMPLE, False, None) == "general"


@pytest.fixture(scope="module")
def tiny_traces():
    """Lazily built, memoized tiny ppc traces for the whole suite."""
    cache = {}

    def get(name):
        if name not in cache:
            program = get_benchmark(name).build_program("ppc", "tiny")
            cache[name] = run_program(program, name=name).trace
        return cache[name]

    return get


@pytest.mark.parametrize("name", NAMES)
def test_mono_bit_identical_simple(tiny_traces, name):
    trace = tiny_traces(name)
    general = annotate_trace(trace, SIMPLE, kernel="general")
    staged = annotate_trace(trace, SIMPLE)
    assert_annotations_equal(general, staged)


@pytest.mark.parametrize("config", SERVED, ids=lambda c: c.name)
@pytest.mark.parametrize("name", ("compress", "eqntott", "xlisp",
                                  "tomcatv"))
def test_mono_bit_identical_all_eligible_configs(tiny_traces, name,
                                                 config):
    trace = tiny_traces(name)
    general = annotate_trace(trace, config, kernel="general")
    staged = annotate_trace(trace, config)
    assert_annotations_equal(general, staged)


@pytest.mark.parametrize(
    "config", PAPER_CONFIGS + EXTENSION_CONFIGS, ids=lambda c: c.name)
def test_auto_matches_general_everywhere(tiny_traces, config):
    """The production default (auto) is bit-identical to the oracle."""
    trace = tiny_traces("compress")
    general = annotate_trace(trace, config, kernel="general")
    auto = annotate_trace(trace, config)
    assert_annotations_equal(general, auto)


def test_audit_mode_still_works(tiny_traces):
    """audit=True silently routes to the general path."""
    trace = tiny_traces("grep")
    audited = annotate_trace(trace, SIMPLE, audit=True)
    plain = annotate_trace(trace, SIMPLE, kernel="general")
    assert (audited.outcomes == plain.outcomes).all()
    assert audited.audit_log is not None
