"""Differential property tests: each fast tier vs its oracle.

Hypothesis generates random VRISC programs -- ALU work, memory traffic,
and forward branches (which force basic-block boundaries in the
compiler) -- and every program must produce a bit-identical trace and
register file under both execution engines.  Run as a loop, the same
programs feed the annotate ladder: the staged kernels must annotate
every stock LVP config exactly as the general unit does.
"""

import dataclasses

from hypothesis import given, seed, settings, strategies as st

from repro.isa import CodeBuilder
from repro.lvp.config import EXTENSION_CONFIGS, PAPER_CONFIGS
from repro.sim import run_program
from repro.trace.annotate import annotate_trace
from repro.trace.records import TRACE_COLUMNS

U64 = (1 << 64) - 1

_REG_OPS = ("add", "sub", "and_", "or_", "xor", "mul", "sll", "srl",
            "slt", "sltu", "seq")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slli", "srli")

_reg = st.integers(3, 23)  # stay clear of r0/SP/TOC
_imm = st.integers(-(1 << 15), (1 << 15) - 1)
_slot = st.integers(0, 15)

#: One random step: an ALU op, a load/store pair, or a guarded skip
#: (a forward conditional branch over one ALU instruction).
_step = st.one_of(
    st.tuples(st.just("reg"), st.sampled_from(_REG_OPS), _reg, _reg,
              _reg),
    st.tuples(st.just("imm"), st.sampled_from(_IMM_OPS), _reg, _reg,
              _imm),
    st.tuples(st.just("li"), _reg,
              st.integers(0, U64), st.just(0), st.just(0)),
    st.tuples(st.just("store"), _reg, _slot, st.just(0), st.just(0)),
    st.tuples(st.just("load"), _reg, _slot, st.just(0), st.just(0)),
    st.tuples(st.just("skip"), st.sampled_from(("beq", "bne", "blt")),
              _reg, _reg, _reg),
)


def _build(steps, iterations=1):
    """*steps* as a program; ``iterations > 1`` wraps them in a counted
    loop (r28), so every load PC executes repeatedly."""
    builder = CodeBuilder("prop")
    builder.data.label("buf")
    builder.data.space(16)
    builder.label("main")
    builder.load_addr(30, "buf")
    builder.li(28, iterations)
    builder.label("loop")
    for index, step in enumerate(steps):
        kind = step[0]
        if kind == "reg":
            _, op, dst, a, b = step
            getattr(builder, op)(dst, a, b)
        elif kind == "imm":
            _, op, dst, src, imm = step
            getattr(builder, op)(dst, src, imm)
        elif kind == "li":
            _, dst, value, _, _ = step
            builder.load_const(dst, value)
        elif kind == "store":
            _, src, slot, _, _ = step
            builder.st(src, 30, slot * 8)
        elif kind == "load":
            _, dst, slot, _, _ = step
            builder.ld(dst, 30, slot * 8)
        else:  # skip: branch over one instruction
            _, op, a, b, dst = step
            label = f"skip_{index}"
            getattr(builder, op)(a, b, label)
            builder.addi(dst, dst, 1)
            builder.label(label)
    builder.addi(28, 28, -1)
    builder.bnez(28, "loop")
    builder.halt()
    return builder.build()


@given(st.lists(_step, max_size=80))
@settings(deadline=None, max_examples=80)
def test_engines_bit_identical_on_random_programs(steps):
    program = _build(steps)
    interp = run_program(program, name="prop", engine="interp")
    compiled = run_program(program, name="prop", engine="compiled")
    assert interp.instruction_count == compiled.instruction_count
    assert interp.registers == compiled.registers
    for name, _ in TRACE_COLUMNS:
        assert (getattr(interp.trace, name)
                == getattr(compiled.trace, name)).all(), name


#: The annotate property's steps add loop-varying values: the loop
#: counter (r28) stored to a slot, or a slowly changing phase of it, so
#: loaded values stay put for a while and then change.
_loop_step = st.one_of(
    _step,
    st.tuples(st.just("store"), st.just(28), _slot, st.just(0),
              st.just(0)),
    st.tuples(st.just("imm"), st.just("srli"), _reg, st.just(28),
              st.integers(1, 3)),
)

#: Every stock config, plus a shrunken copy whose 8-entry LVPT/LCT and
#: 2-entry CVU make index aliasing and CVU eviction common.
ANNOTATE_CONFIGS = tuple(
    variant
    for config in PAPER_CONFIGS + EXTENSION_CONFIGS
    for variant in (config, dataclasses.replace(
        config, name=f"{config.name}/8", lvpt_entries=8, lct_entries=8,
        cvu_entries=min(config.cvu_entries, 2))))


@seed(20241018)
@given(st.lists(_loop_step, min_size=8, max_size=60), st.integers(2, 16))
@settings(deadline=None, max_examples=40)
def test_staged_annotation_matches_general_on_random_programs(
        steps, iterations):
    trace = run_program(_build(steps, iterations), name="prop").trace
    for config in ANNOTATE_CONFIGS:
        staged = annotate_trace(trace, config, kernel="vector")
        general = annotate_trace(trace, config, kernel="general")
        assert (staged.outcomes == general.outcomes).all(), config.name
        assert staged.stats == general.stats, config.name
