"""In-order / out-of-order CPU timing models.

The simulator is a scoreboard-style O(n) timing model: one pass over the
trace computes, per instruction, its fetch, issue, completion and retire
cycles under the configured resources.  Modelled effects:

* front-end: fetch width, L1I/L2/memory instruction fetch misses, redirect
  bubbles after taken branches, mispredict penalties after resolution;
* dependencies: register-ready scoreboard (renaming abstracts WAW/WAR);
* back-end: issue width, per-class functional-unit pools (pipelined or
  not), memory ports, a finite instruction window (ROB) for OoO cores and
  strict program-order issue for in-order cores;
* memory: cache hierarchy with miss-status-holding registers bounding
  memory-level parallelism, DRAM bandwidth queueing;
* barriers: ``fence`` waits for all older instructions and orders younger
  memory operations;
* in-order retirement bounded by commit width.

Retire times are the quantity PerfVec consumes: the paper's *incremental
latency* of instruction ``i`` is ``retire[i] - retire[i-1]`` (zero when an
instruction retires in the same cycle bundle as its predecessor), reported
in the paper's unit of 0.1 ns.

The trace is microarchitecture-independent, so its per-instruction decode
(issue kind, control kind, source and destination registers, address,
branch outcome) is too: :func:`_decode` builds it once and keeps the last
trace's rows in a one-entry memo, so a dataset build that times one trace
on its k microarchitectures back to back decodes it once (Sec. IV-B's
reuse argument applied to the simulator itself).

Every training target comes from the per-instruction loop of
:meth:`CPUSimulator.run`, so that loop keeps its state flat: per-cycle
resource usage lives in lists indexed by cycle, and the L1I/L1D hit
paths and conditional-branch resolution run inline (each copy names the
method it mirrors).  :class:`~repro.sim.cache.CacheHierarchy` and
:class:`~repro.sim.branch.BranchUnit` stay the only home of the miss
paths and predictor state, and the loop calls them in program order, so
that state never depends on timing (SimNet's untimed walk over the same
classes sees the same misses; ``tests/sim/test_cpu.py`` checks it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import obs
from repro.isa.instructions import MAX_SRC_SLOTS
from repro.isa.opcodes import OPCODE_BY_ID, OpClass
from repro.isa.registers import NUM_REGS
from repro.sim.branch import BranchUnit
from repro.sim.cache import CacheHierarchy, MEM_HIT
from repro.uarch.config import CoreKind, MicroarchConfig
from repro.vm.trace import Trace

#: What an instruction occupies when it issues, by op class: a
#: functional unit of group 0-5 (index into the core's FU pools, in
#: :class:`~repro.uarch.config.CoreConfig` order), a memory port
#: (``_LD``/``_ST``), or only an issue slot (``_FENCE``, ``_SLOT``).
_LD, _ST, _FENCE, _SLOT = 6, 7, 8, 9
_KIND = {
    OpClass.INT_ALU: 0,
    OpClass.INT_MUL: 1,
    OpClass.INT_DIV: 2,
    OpClass.FP_ADD: 3,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 5,
    OpClass.LOAD: _LD,
    OpClass.STORE: _ST,
    OpClass.BRANCH: 0,  # compare on an ALU
    OpClass.JUMP: 0,
    OpClass.JUMP_IND: 0,
    OpClass.CALL: 0,
    OpClass.BARRIER: _FENCE,
    OpClass.NOP: _SLOT,
    OpClass.HALT: _SLOT,
}

#: Control-transfer kinds of a decoded instruction (0: not a branch).
_COND, _JUMP, _CALL, _RET, _INDIRECT = 1, 2, 3, 4, 5


def _control_kind(spec) -> int:
    if spec.is_conditional:
        return _COND
    if spec.opclass is OpClass.JUMP:
        return _JUMP
    if spec.opclass is OpClass.CALL:
        return _CALL
    if spec.is_indirect:
        return _RET if spec.mnemonic == "ret" else _INDIRECT
    return 0


#: Per-opcode-id decode tables (index with ``trace.opid``).
_OP_KIND = np.array([_KIND[spec.opclass] for spec in OPCODE_BY_ID])
_OP_CONTROL = np.array([_control_kind(spec) for spec in OPCODE_BY_ID])

#: Place values packing one operand-slot row into an int64 key: slots
#: hold ``REG_NONE`` (-1) or a register id below ``NUM_REGS``.
_SLOT_PLACES = (NUM_REGS + 1) ** np.arange(MAX_SRC_SLOTS, dtype=np.int64)


def _registers(row: list[int]) -> tuple[int, ...]:
    """The registers of one padded slot row: the slots before the first
    ``REG_NONE``."""
    for i, reg in enumerate(row):
        if reg < 0:
            return tuple(row[:i])
    return tuple(row)


def _slot_rows(slots: np.ndarray) -> list[tuple[int, ...]]:
    """``slots`` as one register tuple per instruction (padding
    stripped), each distinct row one shared tuple.  A trace has a few
    dozen distinct rows, so a decode creates almost no objects the
    garbage collector must track."""
    keys = (slots.astype(np.int64) + 1) @ _SLOT_PLACES[: slots.shape[1]]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = [_registers(row) for row in slots[first].tolist()]
    return list(map(distinct.__getitem__, inverse.tolist()))


#: The last decoded trace and its decode.  A pure cache: one strong
#: reference, replaced by a single assignment, so a hit is exactly the
#: trace object it was built from and concurrent callers at worst decode
#: twice.  One entry, not one per trace: rows cost ~1 MB per 6k
#: instructions, and dataset builds time each trace on all its
#: microarchitectures consecutively anyway.
_decoded: tuple[Trace, tuple[list[tuple], frozenset[int]]] | None = None


def _decode(trace: Trace) -> tuple[list[tuple], frozenset[int]]:
    """Per-instruction ``(pc, kind, control kind, src registers, dst
    registers, address, taken, target)`` rows of ``trace`` and the set of
    kinds they use, memoized.

    ``kind`` is what the instruction occupies when it issues (see
    ``_KIND``).  Register tuples hold only real registers: the trace's
    ``REG_NONE`` padding is stripped here, so readers iterate them whole.
    """
    global _decoded
    slot = _decoded
    if slot is not None and slot[0] is trace:
        return slot[1]
    opid = trace.opid
    kind = _OP_KIND[opid]
    rows = list(zip(
        trace.pc.tolist(),
        kind.tolist(),
        _OP_CONTROL[opid].tolist(),
        _slot_rows(trace.src_slots),
        _slot_rows(trace.dst_slots),
        trace.mem_addr.tolist(),
        (trace.branch_taken == 1).tolist(),
        trace.branch_target.tolist(),
    ))
    decoded = rows, frozenset(np.unique(kind).tolist())
    _decoded = (trace, decoded)
    return decoded


@dataclass(frozen=True)
class SimResult:
    """Timing outcome of one (trace, microarchitecture) simulation."""

    config_name: str
    freq_ghz: float
    retire_cycles: np.ndarray  # int64 [n], nondecreasing
    stats: dict[str, int | float]

    def __len__(self) -> int:
        return len(self.retire_cycles)

    @property
    def total_cycles(self) -> int:
        return int(self.retire_cycles[-1])

    @property
    def total_time_ns(self) -> float:
        return self.total_cycles / self.freq_ghz

    @property
    def ipc(self) -> float:
        return len(self) / max(self.total_cycles, 1)

    @cached_property
    def retire_times_ns(self) -> np.ndarray:
        return self.retire_cycles.astype(np.float64) / self.freq_ghz

    @cached_property
    def incremental_latencies(self) -> np.ndarray:
        """Per-instruction incremental latency in 0.1 ns ticks (float32).

        ``t_i = retire_i - retire_{i-1}`` with ``retire_0`` measured from
        time zero; by construction ``sum(t) == total_time``.
        """
        ns = self.retire_times_ns
        ticks = np.empty(len(ns), dtype=np.float32)
        ticks[0] = ns[0] * 10.0
        np.multiply(np.diff(ns), 10.0, out=ticks[1:], casting="unsafe")
        return ticks


class CPUSimulator:
    """Reusable simulator facade bound to one microarchitecture."""

    def __init__(self, config: MicroarchConfig):
        self.config = config

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> SimResult:
        """Time ``trace`` on this microarchitecture."""
        n = len(trace)
        if n == 0:
            raise ValueError("empty trace")
        with obs.span("sim.run", config=self.config.name, trace=trace.name,
                      instructions=n) as span:
            result = self._time(*_decode(trace))
            span.set("cycles", result.total_cycles)
        return result

    def _time(self, rows: list[tuple], kinds: frozenset[int]) -> SimResult:
        cfg = self.config
        core = cfg.core
        n = len(rows)

        # --- caches and branch predictor -----------------------------------
        # The loop takes the L1 hit paths and conditional-branch
        # resolution itself and calls the hierarchy or branch unit only on
        # a miss or for the predictor update; hits, branches and
        # mispredicts are counted in locals and written back at the end.
        hierarchy = CacheHierarchy(cfg)
        l1i_sets, l1i_mask = hierarchy.l1i._sets, hierarchy.l1i.set_mask
        l1d_sets, l1d_mask = hierarchy.l1d._sets, hierarchy.l1d.set_mask
        ifetch_miss = hierarchy.ifetch_miss
        data_miss = hierarchy.data_miss
        data_latency = hierarchy.data_latency
        dram_access = hierarchy.dram.access
        line_shift = cfg.l1d.line_bytes.bit_length() - 1
        l1i_lat = cfg.l1i.latency
        l1_lat = cfg.l1d.latency
        l1i_hits = l1d_hits = 0
        branch_unit = BranchUnit(cfg.branch)
        predict_update = branch_unit.direction.predict_update
        btb_mask = branch_unit.btb_mask
        btb_tags = branch_unit.btb_tags
        btb_targets = branch_unit.btb_targets
        branches = mispredicts = 0

        # --- resources ----------------------------------------------------
        # Bandwidth-limited resources (issue slots, pipelined FU pools,
        # memory ports) are modelled as per-cycle usage counters: an
        # instruction takes the first cycle >= its ready time with spare
        # capacity.  This preserves out-of-order overlap — a late-issuing
        # chain instruction must not block independent younger work, which
        # any "next-free-time" pool model gets wrong.  Occupancy-limited
        # resources (unpipelined dividers, MSHRs) keep busy-until pools:
        # they are held for a duration, not a cycle.
        #
        # The counters are flat lists indexed by cycle.  A full cycle holds
        # at least one booking, so a run of full cycles is at most n long:
        # keeping every list longer than ``t + n`` before a walk from ``t``
        # means no walk runs past the end.  Elements are Python ints, so a
        # cycle booked past its capacity (a load issuing where its MSHR
        # frees, see below) holds its exact count.  Every FU or port
        # booking also books an issue slot in the same cycle, so a pool at
        # least as wide as the issue width never binds and keeps no
        # counter (nor does a pool the trace never uses).
        iw = core.issue_width
        port_cap = core.mem_ports
        size = 2 * n
        issue = [0] * size
        counters = [issue]
        ports = None
        if port_cap < iw and (_LD in kinds or _ST in kinds):
            ports = [0] * size
            counters.append(ports)
        fu = []  # per FU group: (per-cycle counts, count, latency, busy-until)
        groups = (core.int_alu, core.int_mul, core.int_div,
                  core.fp_add, core.fp_mul, core.fp_div)
        for g, group in enumerate(groups):
            counts = units = None
            if not group.pipelined:
                units = [0] * group.count
            elif group.count < iw and g in kinds:
                counts = [0] * size
                counters.append(counts)
            fu.append((counts, group.count, group.latency, units))
        limit = size - n

        def grow(t: int) -> int:
            """Extend every counter to ``t + 2n``; the new ``limit``."""
            extra = [0] * (t + 2 * n - len(issue))
            for counts in counters:
                counts += extra
            return t + n

        mshrs = [0] * core.mshrs

        reg_ready = [0] * NUM_REGS
        ooo = core.kind is CoreKind.OUT_OF_ORDER
        rob = core.rob_size if ooo else 0
        cw = core.commit_width
        # Instruction i retires into ``retire[rob + i]``.  The zero padding
        # stands in for "no instruction that far back", so the window read
        # ``retire[k - rob]`` needs no bounds check: a zero never binds,
        # since every retire cycle is >= 1.  ``same`` counts the
        # instructions retiring in cycle ``last_retire`` (commit width).
        retire = [0] * (rob + n)
        last_retire = 0
        same = 0
        prev_issue = 0

        fw = core.fetch_width
        fe_depth = core.frontend_depth
        penalty = cfg.branch.mispredict_penalty

        fetch_cycle = 0
        fetched = 0
        cur_line = -1
        max_complete = 0
        fence_ready = 0

        for k, (pc, kind, ctl, srcs, dsts, addr, taken, target) in enumerate(
            rows, rob
        ):
            # ---- fetch ------------------------------------------------
            line = pc >> line_shift
            if line != cur_line:
                s = l1i_sets[line & l1i_mask]
                if line in s:  # CacheHierarchy.access_ifetch's hit path
                    del s[line]
                    s[line] = None
                    l1i_hits += 1
                else:
                    fetch_cycle += ifetch_miss(line, fetch_cycle)[0] - l1i_lat
                    fetched = 0
                cur_line = line
            ft = fetch_cycle
            fetched += 1
            if fetched >= fw:
                fetch_cycle = ft + 1
                fetched = 0

            # ---- dispatch / window -------------------------------------
            t = ft + fe_depth
            if ooo:
                r = retire[k - rob]
                if r > t:
                    t = r
            elif prev_issue > t:
                t = prev_issue

            # ---- operand readiness -------------------------------------
            for s in srcs:
                r = reg_ready[s]
                if r > t:
                    t = r

            # ---- structural hazards, execution -------------------------
            # Each resource kind walks the per-cycle counters it needs:
            # issue slots and (if needed) FU or port bandwidth must all
            # have room in the same cycle.  The walk keeps the counts it
            # read at the chosen cycle, and booking adds one to them.
            if kind < _LD:
                counts, cap, latency, units = fu[kind]
                if units is None:
                    if t >= limit:
                        limit = grow(t)
                    if counts is None:
                        while (used := issue[t]) >= iw:
                            t += 1
                    else:
                        while (used := issue[t]) >= iw or (busy := counts[t]) >= cap:
                            t += 1
                        counts[t] = busy + 1
                    complete = t + latency
                else:
                    # unpipelined unit (divider): held for the whole operation
                    free = min(units)
                    if free > t:
                        t = free
                    if t >= limit:
                        limit = grow(t)
                    while (used := issue[t]) >= iw:
                        t += 1
                    complete = t + latency
                    units[units.index(free)] = complete
            elif kind < _FENCE:
                if fence_ready > t:
                    t = fence_ready
                if t >= limit:
                    limit = grow(t)
                if ports is None:
                    while (used := issue[t]) >= iw:
                        t += 1
                else:
                    while (used := issue[t]) >= iw or (booked := ports[t]) >= port_cap:
                        t += 1
                line = addr >> line_shift
                s = l1d_sets[line & l1d_mask]
                if line in s:  # CacheHierarchy.probe_data's hit path
                    del s[line]
                    s[line] = None
                    l1d_hits += 1
                    complete = t + (1 if kind == _ST else l1_lat)
                elif kind == _ST:
                    # state update + bandwidth consumption; the write
                    # buffer hides store latency from the pipeline
                    if data_miss(line) == MEM_HIT:
                        dram_access(t)
                    complete = t + 1
                else:
                    level = data_miss(line)
                    # an MSHR must be free before the miss can go out;
                    # DRAM queueing is measured from the settled time.
                    # The load then issues at ``free`` without
                    # re-checking the issue slots and ports it re-reads
                    # there, so it can book a cycle past capacity (a
                    # known fault; fixing it moves every target).
                    free = min(mshrs)
                    if free > t:
                        t = free
                        if t >= limit:
                            limit = grow(t)
                        used = issue[t]
                        if ports is not None:
                            booked = ports[t]
                    complete = t + data_latency(level, t)
                    mshrs[mshrs.index(free)] = complete
                # booked at the final issue cycle, after any MSHR wait
                if ports is not None:
                    ports[t] = booked + 1
            else:
                if kind == _FENCE and max_complete > t:
                    t = max_complete
                if t >= limit:
                    limit = grow(t)
                while (used := issue[t]) >= iw:
                    t += 1
                complete = t + 1
                if kind == _FENCE:
                    fence_ready = complete
            issue[t] = used + 1

            # ---- control resolution --------------------------------------
            if ctl:
                if ctl == _COND:
                    # BranchUnit.resolve_conditional, inline
                    branches += 1
                    predicted = predict_update(pc, target, taken)
                    if taken:
                        # BranchUnit._btb_update, inline
                        idx = (pc >> 2) & btb_mask
                        btb_tags[idx] = pc
                        btb_targets[idx] = target
                    mis = predicted != taken
                    if mis:
                        mispredicts += 1
                else:
                    taken = True  # jumps, calls and returns always are
                    if ctl == _JUMP:
                        mis = branch_unit.resolve_direct_jump(pc, target)
                    elif ctl == _CALL:
                        mis = branch_unit.resolve_call(pc, target)
                    elif ctl == _RET:
                        mis = branch_unit.resolve_return(pc, target)
                    else:
                        mis = branch_unit.resolve_indirect(pc, target)
                if mis:
                    # younger fetch restarts once the branch resolves
                    redirect = complete + penalty
                    if fetch_cycle < redirect:
                        fetch_cycle = redirect
                        fetched = 0
                        cur_line = -1
                elif taken and fetch_cycle <= ft:
                    # a taken branch ends its fetch bundle
                    fetch_cycle = ft + 1
                    fetched = 0
                    cur_line = -1

            # ---- writeback -----------------------------------------------
            for d in dsts:
                reg_ready[d] = complete
            if complete > max_complete:
                max_complete = complete

            # ---- retire: in order, at most cw per cycle -------------------
            if complete >= last_retire:
                last_retire = complete + 1
                same = 1
            elif same < cw:
                same += 1
            else:
                last_retire += 1
                same = 1
            retire[k] = last_retire
            prev_issue = t

        hierarchy.l1i.hits += l1i_hits
        hierarchy.l1d.hits += l1d_hits
        branch_unit.branches += branches
        branch_unit.mispredicts += mispredicts
        stats: dict[str, int | float] = {
            "instructions": n,
            "cycles": last_retire,
            "ipc": n / max(last_retire, 1),
            "branches": branch_unit.branches,
            "mispredicts": branch_unit.mispredicts,
        }
        stats.update(hierarchy.stats())
        return SimResult(
            config_name=cfg.name,
            freq_ghz=core.freq_ghz,
            retire_cycles=np.array(retire[rob:], dtype=np.int64),
            stats=stats,
        )


def simulate(trace: Trace, config: MicroarchConfig) -> SimResult:
    """One-shot simulation of ``trace`` on ``config``."""
    return CPUSimulator(config).run(trace)
