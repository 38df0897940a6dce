"""The staged annotation kernel: the factored LVP data flow.

One trace decode plus three factored stages -- a value-predictor pass
(the LVPT), an LCT classifier pass, and a CVU replay over only the
constant-classified loads -- reproduce the general
:class:`~repro.lvp.unit.LVPUnit` replay bit-for-bit while sharing
almost all of the work between configurations.  :func:`run_stages`
wires the three stages together, memoising stage A per predictor key
and stage B per LCT key; it is the one implementation behind both the
standard ``annotate_trace`` path (the ``vector`` tier of
:mod:`repro.trace.annotate`, one configuration at a time) and the
sweep engine in :mod:`repro.harness.sweep` (a whole grid at once).

Layering: this module sits *below* both ``repro.trace.annotate`` and
``repro.harness.sweep`` and must import from neither (it is the reason
:data:`NOT_A_LOAD` lives here and is re-exported upward).

Every fast path below must stay bit-identical to the corresponding
predictor/LCT/CVU class; the differential suites in
``tests/harness/test_sweep.py`` and ``tests/trace/test_vector.py``
enforce it against the general :class:`~repro.lvp.unit.LVPUnit` path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigError
from repro.lvp.config import LVPConfig
from repro.lvp.fcm import _HASH_MULT
from repro.lvp.lct import LoadClass
from repro.lvp.unit import LoadOutcome, LVPStats, build_predictor
from repro.trace.records import Trace

#: Sentinel in the per-instruction outcome column for "not a load".
NOT_A_LOAD = 255

_U64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Shared trace decode.
# ---------------------------------------------------------------------------
@dataclass
class SweepEvents:
    """One trace, decoded once, in the shapes the three stages consume."""

    n_records: int
    #: Per dynamic load, in program order (Python lists for the stage
    #: loops, numpy for the vectorized paths).
    load_pcs: list
    load_values: list
    load_pcs_np: np.ndarray
    load_values_np: np.ndarray
    #: Trace positions of the loads (for outcome-array reconstruction).
    load_positions: np.ndarray
    #: Memory events (loads + stores) in program order.
    mem_is_store: np.ndarray  # bool
    mem_load_ord: np.ndarray  # int64; -1 for stores
    mem_addrs: np.ndarray  # effective addresses (stores need them to snoop)
    mem_sizes: np.ndarray  # access sizes (stores need them to snoop)
    #: Loads + branches in program order (gshare's GHR view): kind 0 =
    #: load, 1 = branch.  None unless decoded with ``branches=True``.
    lb_kinds: Optional[list] = None
    lb_pcs: Optional[list] = None
    lb_values: Optional[list] = None
    lb_takens: Optional[list] = None

    @property
    def n_loads(self) -> int:
        return len(self.load_pcs)

    @property
    def n_stores(self) -> int:
        return int(np.count_nonzero(self.mem_is_store))


def decode_events(trace: Trace, branches: bool = True) -> SweepEvents:
    """Decode *trace* into the event streams every stage shares.

    This is the cost the sweep amortizes: numpy mask + fancy-index +
    ``tolist`` once, instead of once per configuration.  *branches*
    may be False when no gshare configuration is in the grid.
    """
    from repro.isa.opcodes import OpClass

    is_load = trace.is_load
    is_store = trace.is_store
    mem_mask = is_load | is_store
    mem_positions = np.nonzero(mem_mask)[0]
    mem_is_store = is_store[mem_positions]
    mem_is_load = ~mem_is_store
    mem_load_ord = np.cumsum(mem_is_load) - 1
    mem_load_ord[mem_is_store] = -1

    load_positions = mem_positions[mem_is_load]
    load_pcs_np = trace.pc[load_positions]
    load_values_np = trace.value[load_positions]

    events = SweepEvents(
        n_records=len(trace),
        load_pcs=load_pcs_np.tolist(),
        load_values=load_values_np.tolist(),
        load_pcs_np=load_pcs_np,
        load_values_np=load_values_np,
        load_positions=load_positions,
        mem_is_store=mem_is_store,
        mem_load_ord=mem_load_ord,
        mem_addrs=trace.addr[mem_positions],
        mem_sizes=trace.size[mem_positions],
    )
    if branches:
        is_branch = trace.opclass == int(OpClass.BRANCH)
        lb_mask = is_load | is_branch
        lb_positions = np.nonzero(lb_mask)[0]
        events.lb_kinds = np.where(
            is_branch[lb_positions], 1, 0).tolist()
        events.lb_pcs = trace.pc[lb_positions].tolist()
        events.lb_values = trace.value[lb_positions].tolist()
        events.lb_takens = trace.taken[lb_positions].tolist()
    return events


# ---------------------------------------------------------------------------
# Stage A: the value-predictor pass.
# ---------------------------------------------------------------------------
def pc_indices(pcs_np: np.ndarray, entries: int) -> np.ndarray:
    """Direct-mapped table indices for an array of instruction PCs."""
    return (pcs_np.astype(np.int64) >> 2) & (entries - 1)


def stage_a_last_value(events: SweepEvents,
                       entries: int) -> tuple[np.ndarray, list]:
    """Vectorized depth-1 last-value prediction (history depth 1 and
    last-N depth 1 collapse to it): a load hits iff the previous load
    mapping to the same table index carried the same value."""
    idx = pc_indices(events.load_pcs_np, entries)
    n = len(idx)
    hits = np.zeros(n, dtype=bool)
    if n:
        order = np.argsort(idx, kind="stable")
        sidx = idx[order]
        svals = events.load_values_np[order]
        same = np.zeros(n, dtype=bool)
        same[1:] = (sidx[1:] == sidx[:-1]) & (svals[1:] == svals[:-1])
        hits[order] = same
    return hits, idx.tolist()


def stage_a_history_pc(events: SweepEvents,
                       config: LVPConfig) -> tuple[np.ndarray, list]:
    """Inline :class:`~repro.lvp.lvpt.LVPT` pass for the paper's
    PC-indexed untagged deep-history table (MRU-first histories).

    Hits collect in a ``bytearray`` and become one numpy view at the
    end: a numpy element store per load would cost more than the
    history update itself.
    """
    table: list[list[int]] = [[] for _ in range(config.lvpt_entries)]
    depth = config.history_depth
    sel_perfect = config.selection == "perfect"
    idxs = pc_indices(events.load_pcs_np, config.lvpt_entries).tolist()
    hits = bytearray(len(idxs))
    for i, (idx, value) in enumerate(zip(idxs, events.load_values)):
        hist = table[idx]
        if not hist:
            hist.append(value)
        elif hist[0] == value:
            hits[i] = 1  # an MRU hit is a hit under either selection
        else:
            # MRU promotion, bounded history.
            if value in hist:
                if sel_perfect:
                    hits[i] = 1
                hist.remove(value)
            elif len(hist) == depth:
                hist.pop()
            hist.insert(0, value)
    return np.frombuffer(hits, dtype=bool), idxs


def stage_a_stride(events: SweepEvents,
                   entries: int) -> tuple[np.ndarray, list]:
    """Inline :class:`~repro.lvp.stride.StridePredictor` pass."""
    mask = entries - 1
    last: list = [None] * entries
    stride = [0] * entries
    conf = [0] * entries
    hits = np.empty(events.n_loads, dtype=bool)
    idxs: list[int] = []
    append_idx = idxs.append
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        idx = (pc >> 2) & mask
        append_idx(idx)
        prev = last[idx]
        if prev is None:
            hits[i] = False
            last[idx] = value
            continue
        if conf[idx] >= 2:
            hits[i] = ((prev + stride[idx]) & _U64) == value
        else:
            hits[i] = prev == value
        delta = (value - prev) & _U64
        if delta == stride[idx]:
            if conf[idx] < 3:
                conf[idx] += 1
        else:
            stride[idx] = delta
            conf[idx] = 1 if delta else 0
        last[idx] = value
    return hits, idxs


def stage_a_fcm(events: SweepEvents, entries: int,
                order: int) -> tuple[np.ndarray, list]:
    """Inline :class:`~repro.lvp.fcm.FCMPredictor` pass.

    The unit hashes the context twice per load (once predicting, once
    training); here prediction and the VPT write share one hash, which
    is legal because nothing shifts the context in between.
    """
    mask = entries - 1
    vht: list[list[int]] = [[] for _ in range(entries)]
    vpt: list = [None] * entries
    hits = np.empty(events.n_loads, dtype=bool)
    idxs: list[int] = []
    append_idx = idxs.append
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        idx = (pc >> 2) & mask
        append_idx(idx)
        ctx = vht[idx]
        if len(ctx) >= order:
            folded = 0
            for v in ctx:
                folded = ((folded * _HASH_MULT) + v) & _U64
            slot = (folded ^ (folded >> 32)) & mask
            hits[i] = vpt[slot] == value
            vpt[slot] = value
            ctx.append(value)
            ctx.pop(0)
        else:
            hits[i] = False
            ctx.append(value)
    return hits, idxs


def stage_a_lastn(events: SweepEvents, entries: int,
                  depth: int) -> tuple[np.ndarray, list]:
    """Inline :class:`~repro.lvp.lastn.LastNPredictor` pass."""
    mask = entries - 1
    buffers: list[list[int]] = [[] for _ in range(entries)]
    hits = np.empty(events.n_loads, dtype=bool)
    idxs: list[int] = []
    append_idx = idxs.append
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        idx = (pc >> 2) & mask
        append_idx(idx)
        buffer = buffers[idx]
        if buffer:
            counts: dict[int, int] = {}
            for v in buffer:
                counts[v] = counts.get(v, 0) + 1
            best = None
            best_count = 0
            for v in reversed(buffer):
                count = counts[v]
                if count > best_count:
                    best = v
                    best_count = count
            hits[i] = best == value
        else:
            hits[i] = False
        buffer.append(value)
        if len(buffer) > depth:
            buffer.pop(0)
    return hits, idxs


def stage_a_hybrid(events: SweepEvents,
                   entries: int) -> tuple[np.ndarray, list]:
    """Inline :class:`~repro.lvp.hybrid.HybridPredictor` pass."""
    mask = entries - 1
    last: list = [None] * entries
    stride = [0] * entries
    conf = [0] * entries
    chooser = [1] * entries
    hits = np.empty(events.n_loads, dtype=bool)
    idxs: list[int] = []
    append_idx = idxs.append
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        idx = (pc >> 2) & mask
        append_idx(idx)
        prev = last[idx]
        if prev is None:
            hits[i] = False
            last[idx] = value
            continue
        if conf[idx] >= 2:
            value_pred = prev
            stride_pred = (prev + stride[idx]) & _U64
        else:
            value_pred = stride_pred = prev
        hits[i] = (stride_pred if chooser[idx] >= 2
                   else value_pred) == value
        value_ok = value_pred == value
        stride_ok = stride_pred == value
        if stride_ok and not value_ok:
            if chooser[idx] < 3:
                chooser[idx] += 1
        elif value_ok and not stride_ok:
            if chooser[idx] > 0:
                chooser[idx] -= 1
        delta = (value - prev) & _U64
        if delta == stride[idx]:
            if conf[idx] < 3:
                conf[idx] += 1
        else:
            stride[idx] = delta
            conf[idx] = 1 if delta else 0
        last[idx] = value
    return hits, idxs


def stage_a_generic(events: SweepEvents,
                    config: LVPConfig) -> tuple[np.ndarray, list]:
    """Object-based pass through the real predictor classes.

    Using :func:`~repro.lvp.unit.build_predictor` -- the same factory
    the LVP unit uses -- guarantees identical table semantics for every
    family without duplicating their update rules here.
    """
    table = build_predictor(config)
    hits = np.empty(events.n_loads, dtype=bool)
    idxs: list[int] = []
    append_idx = idxs.append
    would = table.would_be_correct
    index_of = table.index_of
    update = table.update
    if config.index_mode == "gshare":
        if events.lb_kinds is None:
            raise ConfigError(
                "gshare configurations need a branch-aware decode "
                "(decode_events(..., branches=True))")
        record_branch = table.record_branch
        i = 0
        for kind, pc, value, taken in zip(events.lb_kinds, events.lb_pcs,
                                          events.lb_values,
                                          events.lb_takens):
            if kind:
                record_branch(bool(taken))
                continue
            hits[i] = would(pc, value)
            append_idx(index_of(pc))
            update(pc, value)
            i += 1
        return hits, idxs
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        hits[i] = would(pc, value)
        append_idx(index_of(pc))
        update(pc, value)
    return hits, idxs


def run_stage_a(events: SweepEvents,
                config: LVPConfig) -> tuple[np.ndarray, list]:
    """Dispatch one configuration to its fastest exact stage-A pass."""
    if config.index_mode == "gshare" or config.lvpt_tagged:
        return stage_a_generic(events, config)
    if config.predictor == "history":
        if config.history_depth == 1:
            return stage_a_last_value(events, config.lvpt_entries)
        return stage_a_history_pc(events, config)
    if config.predictor == "stride":
        return stage_a_stride(events, config.lvpt_entries)
    if config.predictor == "fcm":
        return stage_a_fcm(events, config.lvpt_entries,
                           config.history_depth)
    if config.predictor == "lastn":
        if config.history_depth == 1:
            return stage_a_last_value(events, config.lvpt_entries)
        return stage_a_lastn(events, config.lvpt_entries,
                             config.history_depth)
    if config.predictor == "hybrid":
        return stage_a_hybrid(events, config.lvpt_entries)
    # A predictor family this engine has no fast path for yet: the
    # object path is always correct.
    return stage_a_generic(events, config)


# ---------------------------------------------------------------------------
# Stage B: the classifier pass.
# ---------------------------------------------------------------------------
_DONT = int(LoadClass.DONT_PREDICT)
_PREDICT = int(LoadClass.PREDICT)
_CONST = int(LoadClass.CONSTANT)


def run_stage_b(events: SweepEvents, hits: np.ndarray,
                lct_entries: int, lct_bits: int,
                lidx: Optional[np.ndarray] = None) -> np.ndarray:
    """Evolve the LCT counters over the ``would_hit`` stream *hits*;
    returns each load's classification code (uint8 LoadClass values).
    *lidx* optionally passes precomputed LCT indices.

    Fully vectorized.  An LCT entry is a saturating counter: each load
    applies ``c -> clip(c +- 1, 0, max)``, and clip-affine maps
    ``c -> min(hi, max(lo, c + a))`` are closed under composition, so
    the per-entry counter stream is a segmented inclusive prefix scan
    over ``(a, lo, hi)`` triples.  Loads are grouped per entry with a
    stable argsort (the same groupby trick as stage A) and the scan
    runs Hillis-Steele doubling with a segment guard -- O(n log n)
    numpy work, no per-load Python loop.
    """
    if lidx is None:
        lidx = pc_indices(events.load_pcs_np, lct_entries)
    n = events.n_loads
    lct_max = (1 << lct_bits) - 1
    # Counter value -> LoadClass code.
    class_of = np.full(lct_max + 1, _DONT, dtype=np.uint8)
    class_of[lct_max] = _CONST
    if lct_bits > 1:
        class_of[lct_max - 1] = _PREDICT
    if n == 0:
        return np.empty(0, dtype=np.uint8)

    order = np.argsort(lidx, kind="stable")
    seg = lidx[order]
    # Per-load step function (a, lo, hi): clip(c + a, 0, lct_max).
    # int32 is ample: |a| <= n < 2**31 and lo/hi stay within it too.
    comp_a = np.where(hits[order], 1, -1).astype(np.int32)
    comp_lo = np.zeros(n, dtype=np.int32)
    comp_hi = np.full(n, lct_max, dtype=np.int32)

    pos = np.arange(n, dtype=np.int32)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(seg[1:], seg[:-1], out=head[1:])
    start = np.maximum.accumulate(np.where(head, pos, 0))
    longest = int((pos - start).max()) + 1

    # Segmented inclusive scan: compose element k with k-o (applied
    # first) while k-o is still inside k's segment.  Composition law
    # for f=(a1,lo1,hi1) then g=(a2,lo2,hi2):
    #   a = a1+a2; lo = max(lo2, lo1+a2); hi = min(hi2, max(lo2, hi1+a2))
    offset = 1
    while offset < longest:
        can = pos - offset >= start
        src = np.where(can, pos - offset, pos)
        prev_a = comp_a[src]
        prev_lo = comp_lo[src]
        prev_hi = comp_hi[src]
        new_a = prev_a + comp_a
        new_lo = np.maximum(comp_lo, prev_lo + comp_a)
        new_hi = np.minimum(comp_hi, np.maximum(comp_lo, prev_hi + comp_a))
        comp_a = np.where(can, new_a, comp_a)
        comp_lo = np.where(can, new_lo, comp_lo)
        comp_hi = np.where(can, new_hi, comp_hi)
        offset <<= 1

    # Counter AFTER load k (applied to the entry's initial 0), then
    # shifted: the classification reads the counter BEFORE the update.
    after = np.minimum(comp_hi, np.maximum(comp_lo, comp_a))
    before = np.empty(n, dtype=np.int64)
    before[0] = 0
    before[1:] = after[:-1]
    before[head] = 0

    classes = np.empty(n, dtype=np.uint8)
    classes[order] = class_of[before]
    return classes


class LctContext:
    """Per-(predictor, LCT) shared state stage C reuses across every
    CVU capacity: the classification masks, the Table 3 tallies, the
    non-constant outcome template, and the compact CVU event stream."""

    __slots__ = ("const_mask", "n_const", "base_out",
                 "pp", "pnp", "up", "unp", "_streams")

    def __init__(self, hits: np.ndarray, classes: np.ndarray) -> None:
        self.const_mask = classes == _CONST
        self.n_const = int(np.count_nonzero(self.const_mask))
        self.base_out = np.where(
            classes == _PREDICT,
            np.where(hits, int(LoadOutcome.CORRECT),
                     int(LoadOutcome.INCORRECT)),
            int(LoadOutcome.NO_PREDICTION)).astype(np.uint8)
        dont = classes == _DONT
        self.pnp = int(np.count_nonzero(dont & hits))
        self.unp = int(np.count_nonzero(dont & ~hits))
        self.pp = int(np.count_nonzero(~dont & hits))
        self.up = int(np.count_nonzero(~dont & ~hits))
        self._streams: Optional[tuple] = None

    def relevant_streams(self, events: SweepEvents, idxs: list,
                         shift: int, hits: np.ndarray) -> tuple:
        """The CVU-visible event stream: constant-classified loads and
        aliasing stores, in program order, as compact parallel lists.

        Loads carry ``(cam_key, would_hit)``, stores carry their
        snooped ``(first_word, last_word)`` span -- precomputed here
        once per classifier shape instead of once per CVU capacity
        (every configuration sharing this context shares its predictor,
        hence its ``idxs`` and LVPT ``shift``).
        """
        if self._streams is None:
            mem_ord = events.mem_load_ord
            mem_store = events.mem_is_store
            const_load = np.where(
                mem_ord >= 0, self.const_mask[mem_ord], False)
            addrs = events.mem_addrs.astype(np.int64)
            words = addrs & ~7
            last_words = (addrs + np.maximum(
                events.mem_sizes.astype(np.int64), 1) - 1) & ~7
            # The CAM only ever holds words of constant-classified
            # loads, so a single-word store whose word is not among
            # them can never invalidate anything -- drop it here
            # instead of replaying it.  Multi-word stores are rare;
            # keep them all rather than testing their whole span.
            const_words = np.unique(words[const_load])
            aliasing = mem_store & (
                (words != last_words) | np.isin(words, const_words))
            positions = np.nonzero(const_load | aliasing)[0]
            store_flags = mem_store[positions]
            load_sel = ~store_flags
            load_ord = mem_ord[positions][load_sel]
            load_words = words[positions][load_sel]
            firsts = np.where(store_flags, words[positions], 0)
            seconds = np.where(store_flags, last_words[positions], 0)
            seconds[load_sel] = hits[load_ord]
            if load_ord.size and (load_words.min() < 0
                                  or (int(load_words.max())
                                      >> (62 - shift))):
                # Degenerate address range: pack the CAM keys with
                # Python ints (exact at any width).
                first_list = firsts.tolist()
                for i, w, o in zip(np.nonzero(load_sel)[0].tolist(),
                                   load_words.tolist(),
                                   load_ord.tolist()):
                    first_list[i] = (int(w) << shift) | idxs[o]
            else:
                idxs_np = np.asarray(idxs, dtype=np.int64)
                firsts[load_sel] = (load_words << shift) \
                    | idxs_np[load_ord]
                first_list = firsts.tolist()
            self._streams = (store_flags.tolist(), first_list,
                             seconds.tolist())
        return self._streams


# ---------------------------------------------------------------------------
# Stage C: the CVU pass + outcome/stats assembly.
# ---------------------------------------------------------------------------
def run_stage_c(events: SweepEvents, hits: np.ndarray, idxs: list,
                context: LctContext,
                config: LVPConfig) -> tuple[np.ndarray, LVPStats]:
    """Simulate the CVU over the constant-classified loads and
    assemble one configuration's full per-record outcome array and
    :class:`~repro.lvp.unit.LVPStats` -- bit-identical to a standalone
    :func:`~repro.trace.annotate.annotate_trace` run."""
    n_const = context.n_const
    cvu_entries = config.cvu_entries
    out = context.base_out.copy()

    cvu_ins = cvu_sinv = cvu_dem = cvu_stale = 0
    if n_const and cvu_entries == 0:
        # A zero-entry CVU can never match: every constant-classified
        # load demotes to ordinary verification, and the refused
        # insertions are not counted (the counter bugfix the sweep
        # engine's differential suite locks in).
        cvu_dem = n_const
        out[context.const_mask] = np.where(
            hits[context.const_mask], int(LoadOutcome.CORRECT),
            int(LoadOutcome.INCORRECT))
    elif n_const:
        # CAM keys pack (word, lvpt_index) into one int -- int keys
        # hash faster than tuples and allocate nothing.  The word
        # survives in the high bits for eviction bookkeeping.
        shift = (config.lvpt_entries - 1).bit_length()
        rel_store, rel_first, rel_second = \
            context.relevant_streams(events, idxs, shift, hits)
        cam: OrderedDict = OrderedDict()
        by_addr: dict[int, set] = {}
        cam_move = cam.move_to_end
        cam_pop_lru = cam.popitem
        const_out = bytearray()
        emit = const_out.append
        for is_store, first, second in zip(rel_store, rel_first,
                                           rel_second):
            if not is_store:
                # A constant-classified load: first=key, second=hit.
                if first in cam:
                    if second:
                        cam_move(first)
                        emit(3)
                    else:
                        cvu_stale += 1
                        del cam[first]
                        word = first >> shift
                        holders = by_addr.get(word)
                        if holders is not None:
                            holders.discard(first)
                            if not holders:
                                del by_addr[word]
                        emit(1)
                else:
                    cvu_dem += 1
                    if len(cam) >= cvu_entries:
                        victim = cam_pop_lru(last=False)[0]
                        victims = by_addr.get(victim >> shift)
                        if victims is not None:
                            victims.discard(victim)
                            if not victims:
                                del by_addr[victim >> shift]
                    cam[first] = None
                    word = first >> shift
                    holders = by_addr.get(word)
                    if holders is None:
                        by_addr[word] = {first}
                    else:
                        holders.add(first)
                    cvu_ins += 1
                    emit(2 if second else 1)
            elif first == second:
                # A store within one word (the common case).
                holders = by_addr.pop(first, None)
                if holders:
                    for key in holders:
                        del cam[key]
                    cvu_sinv += len(holders)
            else:
                for word in range(first, second + 8, 8):
                    holders = by_addr.pop(word, None)
                    if holders:
                        for key in holders:
                            del cam[key]
                        cvu_sinv += len(holders)
        out[context.const_mask] = np.frombuffer(const_out, dtype=np.uint8)

    counts = np.bincount(out, minlength=4)
    stats = LVPStats(
        loads=events.n_loads, stores=events.n_stores,
        outcomes={
            LoadOutcome.NO_PREDICTION: int(counts[0]),
            LoadOutcome.INCORRECT: int(counts[1]),
            LoadOutcome.CORRECT: int(counts[2]),
            LoadOutcome.CONSTANT: int(counts[3]),
        },
        predictable_predicted=context.pp,
        predictable_not_predicted=context.pnp,
        unpredictable_predicted=context.up,
        unpredictable_not_predicted=context.unp,
        cvu_insertions=cvu_ins,
        cvu_store_invalidations=cvu_sinv,
        cvu_demotions=cvu_dem,
        cvu_stale_hits=cvu_stale,
    )
    full = np.full(events.n_records, NOT_A_LOAD, dtype=np.uint8)
    full[events.load_positions] = out
    return full, stats


def stage_perfect(events: SweepEvents) -> tuple[np.ndarray, LVPStats]:
    """The Perfect oracle: every load is a correct prediction.

    A perfect unit builds no tables (no LVPT, LCT or CVU), so there is
    nothing to stage; only the loads and stores are counted.
    """
    n_loads = events.n_loads
    full = np.full(events.n_records, NOT_A_LOAD, dtype=np.uint8)
    full[events.load_positions] = int(LoadOutcome.CORRECT)
    stats = LVPStats(loads=n_loads, stores=events.n_stores,
                     predictable_predicted=n_loads)
    stats.outcomes[LoadOutcome.CORRECT] = n_loads
    return full, stats


# ---------------------------------------------------------------------------
# The staged driver: stage keys + memoised per-config loop.
# ---------------------------------------------------------------------------
def predictor_key(config: LVPConfig) -> tuple:
    """The stage-A sharing key: fields the value predictor depends on.

    Canonicalized so configurations differing only in fields their
    predictor family ignores (selection for stride, say) share one
    stage-A pass.
    """
    if config.predictor == "history":
        if config.index_mode == "gshare":
            return ("history", config.lvpt_entries, config.history_depth,
                    config.selection, config.lvpt_tagged, "gshare",
                    config.ghr_bits)
        # At depth 1 the selection policy is irrelevant (a one-element
        # history makes "any stored value" and "the MRU value" the
        # same predicate), so both policies share one pass.
        selection = "mru" if config.history_depth == 1 else config.selection
        return ("history", config.lvpt_entries, config.history_depth,
                selection, config.lvpt_tagged, "pc", 0)
    depth = config.history_depth \
        if config.predictor in ("fcm", "lastn") else 1
    return (config.predictor, config.lvpt_entries, depth,
            "mru", False, "pc", 0)


def lct_key(config: LVPConfig) -> tuple:
    """The stage-B sharing key: predictor key + LCT shape."""
    return predictor_key(config) + (config.lct_entries, config.lct_bits)


def run_stages(events: SweepEvents, configs: Iterable[LVPConfig]
               ) -> Iterator[tuple[np.ndarray, LVPStats]]:
    """Annotate the decoded trace under each of *configs*, in order.

    Yields one ``(outcomes, stats)`` pair per configuration -- the full
    per-record outcome array and :class:`~repro.lvp.unit.LVPStats`,
    bit-identical to the general :class:`~repro.lvp.unit.LVPUnit`
    replay.  Stage A runs once per :func:`predictor_key`, stage B once
    per :func:`lct_key`, stage C once per configuration; Perfect
    configurations take :func:`stage_perfect`.  Profile-filtered
    configurations are outside this data flow: callers route them to
    the general path.  *events* must carry the branch stream
    (``decode_events(..., branches=True)``) if any configuration uses
    gshare indexing.
    """
    stage_a: dict[tuple, tuple[np.ndarray, list]] = {}
    stage_b: dict[tuple, LctContext] = {}
    lct_indices: dict[int, np.ndarray] = {}
    for config in configs:
        if config.perfect:
            yield stage_perfect(events)
            continue
        akey = predictor_key(config)
        if akey not in stage_a:
            stage_a[akey] = run_stage_a(events, config)
        hits, idxs = stage_a[akey]
        bkey = lct_key(config)
        context = stage_b.get(bkey)
        if context is None:
            lidx = lct_indices.get(config.lct_entries)
            if lidx is None:
                lidx = lct_indices[config.lct_entries] = pc_indices(
                    events.load_pcs_np, config.lct_entries)
            classes = run_stage_b(events, hits, config.lct_entries,
                                  config.lct_bits, lidx)
            context = stage_b[bkey] = LctContext(hits, classes)
        yield run_stage_c(events, hits, idxs, context, config)
