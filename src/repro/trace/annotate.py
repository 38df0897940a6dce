"""LVP annotation of traces (paper Section 5).

The paper's experimental framework feeds each trace through a model of
the LVP unit "which annotates each load in the trace with one of four
value prediction states: no prediction, incorrect prediction, correct
prediction, or constant load", and hands the annotated trace to the
cycle-accurate simulators.  This module is that middle phase.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigError
from repro.isa.opcodes import OpClass
from repro.lvp.config import LVPConfig
from repro.lvp.unit import LoadOutcome, LVPStats, LVPUnit
from repro.trace.kernels import NOT_A_LOAD, decode_events, run_stages
from repro.trace.records import Trace

# Event kinds for the program-order replay.
_LOAD, _STORE, _BRANCH = 0, 1, 2

#: Recognised values of the ``kernel`` knob / ``REPRO_ANNOTATE_KERNEL``.
KERNELS = ("auto", "general", "vector")


def vector_eligible(config: LVPConfig, audit: bool = False,
                    fault_hook=None) -> bool:
    """Can the staged (``vector``) kernel annotate under *config*?

    Every predictor family, LCT and CVU shape, and the Perfect oracle
    run through the staged kernels in :mod:`repro.trace.kernels`.  Only
    the features that need the per-event :class:`LVPUnit` object stay
    on the general path: the audit log, a mid-annotation fault hook,
    and a profile filter.
    """
    return (not audit and fault_hook is None
            and config.profile_filter is None)


def resolve_kernel(kernel, config: LVPConfig, audit: bool,
                   fault_hook) -> str:
    """Resolve the kernel knob to a concrete kernel name.

    ``REPRO_ANNOTATE_KERNEL`` overrides the argument; ``"auto"`` (the
    default) picks ``vector`` whenever :func:`vector_eligible` allows
    and ``general`` otherwise.  Forcing ``"vector"`` for an ineligible
    combination is a :class:`ConfigError` rather than a silent
    fallback.
    """
    env = os.environ.get("REPRO_ANNOTATE_KERNEL")
    if env:
        kernel = env
    if kernel is None:
        kernel = "auto"
    if kernel not in KERNELS:
        raise ConfigError(
            f"unknown annotation kernel {kernel!r} "
            f"(choose from {', '.join(KERNELS)})"
        )
    eligible = vector_eligible(config, audit, fault_hook)
    if kernel == "vector" and not eligible:
        raise ConfigError(
            f"kernel 'vector' cannot annotate config {config.name!r} with "
            "audit/fault-hook/profile-filter features requested; use "
            "'auto' or 'general'"
        )
    if kernel == "auto":
        return "vector" if eligible else "general"
    return kernel


class AnnotatedTrace:
    """A trace plus per-load LVP prediction states.

    ``outcomes`` is a uint8 array parallel to the trace: load positions
    hold a :class:`LoadOutcome` value; everything else holds
    :data:`NOT_A_LOAD`.  When annotation ran with ``audit=True``,
    ``audit_log`` holds one ``(pc, predicted, actual, outcome)`` tuple
    per dynamic load (``predicted`` is None when the unit had no value
    to forward); otherwise it is None.
    """

    def __init__(self, trace: Trace, config: LVPConfig,
                 outcomes: np.ndarray, stats: LVPStats,
                 audit_log=None) -> None:
        self.trace = trace
        self.config = config
        self.outcomes = outcomes
        self.stats = stats
        self.audit_log = audit_log

    def outcome_counts(self) -> dict[LoadOutcome, int]:
        """Dynamic load counts per prediction state."""
        return dict(self.stats.outcomes)

    def __repr__(self) -> str:
        return (
            f"<AnnotatedTrace {self.trace.name!r} config={self.config.name} "
            f"loads={self.stats.loads}>"
        )


def annotate_trace(trace: Trace, config: LVPConfig, *,
                   audit: bool = False,
                   fault_hook=None,
                   kernel: str | None = None) -> AnnotatedTrace:
    """Run an LVP unit over *trace* in program order; annotate each load.

    Units whose lookup index folds in branch history additionally
    consume the trace's conditional-branch outcomes, in program order
    interleaved with the memory operations.

    ``audit=True`` makes the unit record every forwarded prediction so
    callers (notably the fault-injection doctor) can prove the value
    comparator catches every wrong forward.  ``fault_hook``, if given,
    is called as ``fault_hook(unit, event_index)`` before each
    load/store/branch event -- the hook decides when (and whether) to
    corrupt the unit's tables mid-annotation.

    ``kernel`` selects the annotation implementation: ``"general"``
    replays through :class:`LVPUnit` method calls and supports every
    feature; ``"vector"`` runs the staged kernels from
    :mod:`repro.trace.kernels` (a predictor pass, an LCT counter pass,
    and a CVU replay over only the constant-classified loads) and
    covers every configuration without audit, fault hook or profile
    filter (see :func:`vector_eligible`); ``"auto"`` (default) picks
    ``vector`` where it is eligible.  ``REPRO_ANNOTATE_KERNEL``
    overrides.
    """
    resolved = resolve_kernel(kernel, config, audit, fault_hook)
    if resolved == "vector":
        events = decode_events(trace,
                               branches=config.index_mode == "gshare")
        outcomes, stats = next(run_stages(events, (config,)))
        return AnnotatedTrace(trace, config, outcomes, stats,
                              audit_log=None)

    unit = LVPUnit(config, audit=audit)
    outcomes = np.full(len(trace), NOT_A_LOAD, dtype=np.uint8)

    is_load = trace.is_load
    relevant = is_load | trace.is_store
    kinds = np.where(is_load, _LOAD, _STORE)
    if unit.needs_branch_stream:
        is_branch = trace.opclass == int(OpClass.BRANCH)
        relevant = relevant | is_branch
        kinds = np.where(is_branch, _BRANCH, kinds)

    positions = np.nonzero(relevant)[0]
    kind_list = kinds[positions].tolist()
    pcs = trace.pc[positions].tolist()
    addrs = trace.addr[positions].tolist()
    values = trace.value[positions].tolist()
    sizes = trace.size[positions].tolist()
    takens = trace.taken[positions].tolist()
    position_list = positions.tolist()

    process_load = unit.process_load
    process_store = unit.process_store
    process_branch = unit.process_branch
    for i, pos in enumerate(position_list):
        if fault_hook is not None:
            fault_hook(unit, i)
        kind = kind_list[i]
        if kind == _LOAD:
            outcomes[pos] = int(process_load(pcs[i], addrs[i], values[i]))
        elif kind == _STORE:
            process_store(addrs[i], sizes[i])
        else:
            process_branch(bool(takens[i]))

    return AnnotatedTrace(trace, config, outcomes, unit.stats,
                          audit_log=unit.audit_log)
