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
(op class, functional-unit group, control kind, operand slots, address,
branch outcome) is too: :func:`_decode` builds it once and keeps the last
trace's rows in a one-entry memo, so a dataset build that times one trace
on its k microarchitectures back to back decodes it once (Sec. IV-B's
reuse argument applied to the simulator itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.isa.instructions import MAX_SRC_SLOTS
from repro.isa.opcodes import OPCODE_BY_ID, OpClass
from repro.isa.registers import NUM_REGS
from repro.sim.branch import BranchUnit
from repro.sim.cache import CacheHierarchy, L1_HIT, MEM_HIT
from repro.uarch.config import CoreKind, MicroarchConfig
from repro.vm.trace import Trace

#: Map op classes to functional-unit group indices (-1: no FU needed).
_FU_GROUP = {
    OpClass.INT_ALU: 0,
    OpClass.INT_MUL: 1,
    OpClass.INT_DIV: 2,
    OpClass.FP_ADD: 3,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 5,
    OpClass.LOAD: -1,
    OpClass.STORE: -1,
    OpClass.BRANCH: 0,  # compare on an ALU
    OpClass.JUMP: 0,
    OpClass.JUMP_IND: 0,
    OpClass.CALL: 0,
    OpClass.BARRIER: -1,
    OpClass.NOP: -1,
    OpClass.HALT: -1,
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
_OP_CLASS = np.array([int(spec.opclass) for spec in OPCODE_BY_ID])
_OP_FU_GROUP = np.array([_FU_GROUP[spec.opclass] for spec in OPCODE_BY_ID])
_OP_CONTROL = np.array([_control_kind(spec) for spec in OPCODE_BY_ID])

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BARRIER = int(OpClass.BARRIER)

#: Place values packing one operand-slot row into an int64 key: slots
#: hold ``REG_NONE`` (-1) or a register id below ``NUM_REGS``.
_SLOT_PLACES = (NUM_REGS + 1) ** np.arange(MAX_SRC_SLOTS, dtype=np.int64)


def _slot_rows(slots: np.ndarray) -> list[tuple[int, ...]]:
    """``slots`` as one padded tuple per instruction, each distinct row one
    shared tuple.  A trace has a few dozen distinct rows, so a decode
    creates almost no objects the garbage collector must track."""
    keys = (slots.astype(np.int64) + 1) @ _SLOT_PLACES[: slots.shape[1]]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = [tuple(row) for row in slots[first].tolist()]
    return list(map(distinct.__getitem__, inverse.tolist()))


#: The last decoded ``(trace, rows)`` pair.  A pure cache: one strong
#: reference, replaced by a single assignment, so a hit is exactly the
#: trace object it was built from and concurrent callers at worst decode
#: twice.  One entry, not one per trace: rows cost ~1 MB per 6k
#: instructions, and dataset builds time each trace on all its
#: microarchitectures consecutively anyway.
_decoded: tuple[Trace, list[tuple]] | None = None


def _decode(trace: Trace) -> list[tuple]:
    """Per-instruction ``(pc, op class, FU group, control kind, src slots,
    dst slots, address, taken, target)`` rows of ``trace``, memoized.

    Slot rows keep the trace's ``REG_NONE`` (-1) padding; readers stop at
    the first negative slot.
    """
    global _decoded
    slot = _decoded
    if slot is not None and slot[0] is trace:
        return slot[1]
    opid = trace.opid
    rows = list(zip(
        trace.pc.tolist(),
        _OP_CLASS[opid].tolist(),
        _OP_FU_GROUP[opid].tolist(),
        _OP_CONTROL[opid].tolist(),
        _slot_rows(trace.src_slots),
        _slot_rows(trace.dst_slots),
        trace.mem_addr.tolist(),
        (trace.branch_taken == 1).tolist(),
        trace.branch_target.tolist(),
    ))
    _decoded = (trace, rows)
    return rows


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
        cfg = self.config
        core = cfg.core
        n = len(trace)
        if n == 0:
            raise ValueError("empty trace")
        rows = _decode(trace)

        hierarchy = CacheHierarchy(cfg)
        access_ifetch = hierarchy.access_ifetch
        probe_data = hierarchy.probe_data
        data_latency = hierarchy.data_latency
        dram_access = hierarchy.dram.access
        line_shift = cfg.l1d.line_bytes.bit_length() - 1
        l1i_lat = cfg.l1i.latency
        l1_lat = cfg.l1d.latency
        branch_unit = BranchUnit(cfg.branch)
        resolve_conditional = branch_unit.resolve_conditional

        # --- resources ----------------------------------------------------
        # Bandwidth-limited resources (issue slots, pipelined FU pools,
        # memory ports) are modelled as per-cycle usage counters: an
        # instruction takes the first cycle >= its ready time with spare
        # capacity.  This preserves out-of-order overlap — a late-issuing
        # chain instruction must not block independent younger work, which
        # any "next-free-time" pool model gets wrong.  Occupancy-limited
        # resources (unpipelined dividers, MSHRs) keep busy-until pools:
        # they are held for a duration, not a cycle.
        groups = (core.int_alu, core.int_mul, core.int_div,
                  core.fp_add, core.fp_mul, core.fp_div)
        fu_counts: list[dict[int, int]] = [{} for _ in groups]
        fu_cap = [g.count for g in groups]
        fu_lat = [g.latency for g in groups]
        fu_pipe = [g.pipelined for g in groups]
        fu_busy: list[list[int]] = [[0] * g.count for g in groups]
        port_counts: dict[int, int] = {}
        port_cap = core.mem_ports
        mshrs = [0] * core.mshrs
        issue_counts: dict[int, int] = {}
        iw = core.issue_width

        reg_ready = [0] * NUM_REGS
        ooo = core.kind is CoreKind.OUT_OF_ORDER
        rob = core.rob_size if ooo else 0
        cw = core.commit_width
        # Zero padding stands in for "no instruction that far back", so
        # ``retire[-rob]`` and ``retire[-cw]`` need no bounds checks: a
        # zero never binds, since every retire cycle is >= 1.
        pad = max(rob, cw)
        retire = [0] * pad
        push_retire = retire.append
        last_retire = 0
        prev_issue = 0

        fw = core.fetch_width
        fe_depth = core.frontend_depth
        penalty = cfg.branch.mispredict_penalty

        fetch_cycle = 0
        fetched = 0
        cur_line = -1
        redirect = 0
        max_complete = 0
        fence_ready = 0

        for pc, oc, g, ctl, srcs, dsts, addr, taken, target in rows:
            # ---- fetch ------------------------------------------------
            if fetch_cycle < redirect:
                fetch_cycle = redirect
                fetched = 0
                cur_line = -1
            line = pc >> line_shift
            if line != cur_line:
                ilat, ilvl = access_ifetch(pc, fetch_cycle)
                if ilvl != L1_HIT:
                    fetch_cycle += ilat - l1i_lat
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
                r = retire[-rob]
                if r > t:
                    t = r
            elif prev_issue > t:
                t = prev_issue

            # ---- operand readiness -------------------------------------
            for s in srcs:
                if s < 0:
                    break
                r = reg_ready[s]
                if r > t:
                    t = r

            # ---- structural hazards, execution -------------------------
            # Each resource kind walks the per-cycle counters it needs:
            # issue slots and (if needed) FU or port bandwidth must all
            # have room in the same cycle.  The walk keeps the counts it
            # read at the chosen cycle, and booking adds one to them.
            if g >= 0:
                if fu_pipe[g]:
                    counts = fu_counts[g]
                    cap = fu_cap[g]
                    while ((used := issue_counts.get(t, 0)) >= iw
                           or (busy := counts.get(t, 0)) >= cap):
                        t += 1
                    counts[t] = busy + 1
                    complete = t + fu_lat[g]
                else:
                    # unpipelined unit (divider): held for the whole operation
                    units = fu_busy[g]
                    free = min(units)
                    if free > t:
                        t = free
                    while (used := issue_counts.get(t, 0)) >= iw:
                        t += 1
                    complete = t + fu_lat[g]
                    units[units.index(free)] = complete
            elif oc == _LOAD or oc == _STORE:
                if fence_ready > t:
                    t = fence_ready
                while ((used := issue_counts.get(t, 0)) >= iw
                       or (ports := port_counts.get(t, 0)) >= port_cap):
                    t += 1
                level = probe_data(addr)
                if oc == _STORE:
                    # state update + bandwidth consumption; the write
                    # buffer hides store latency from the pipeline
                    if level == MEM_HIT:
                        dram_access(t)
                    complete = t + 1
                elif level == L1_HIT:
                    complete = t + l1_lat
                else:
                    # an MSHR must be free before the miss can go out;
                    # DRAM queueing is measured from the settled time
                    free = min(mshrs)
                    if free > t:
                        t = free
                        used = issue_counts.get(t, 0)
                        ports = port_counts.get(t, 0)
                    complete = t + data_latency(level, t)
                    mshrs[mshrs.index(free)] = complete
                # booked at the final issue cycle, after any MSHR wait
                port_counts[t] = ports + 1
            else:
                if oc == _BARRIER and max_complete > t:
                    t = max_complete
                while (used := issue_counts.get(t, 0)) >= iw:
                    t += 1
                complete = t + 1
                if oc == _BARRIER:
                    fence_ready = complete
            issue_counts[t] = used + 1

            # ---- control resolution --------------------------------------
            if ctl:
                if ctl == _COND:
                    if resolve_conditional(pc, target, taken):
                        redirect = complete + penalty
                    elif taken and fetch_cycle <= ft:
                        fetch_cycle = ft + 1
                        fetched = 0
                        cur_line = -1
                elif ctl == _JUMP or ctl == _CALL:
                    if ctl == _JUMP:
                        branch_unit.resolve_direct_jump(pc, target)
                    else:
                        branch_unit.resolve_call(pc, target)
                    if fetch_cycle <= ft:
                        fetch_cycle = ft + 1
                        fetched = 0
                        cur_line = -1
                else:
                    if ctl == _RET:
                        mis = branch_unit.resolve_return(pc, target)
                    else:
                        mis = branch_unit.resolve_indirect(pc, target)
                    if mis:
                        redirect = complete + penalty
                    elif fetch_cycle <= ft:
                        fetch_cycle = ft + 1
                        fetched = 0
                        cur_line = -1

            # ---- writeback -----------------------------------------------
            for d in dsts:
                if d < 0:
                    break
                reg_ready[d] = complete
            if complete > max_complete:
                max_complete = complete

            # ---- retire ---------------------------------------------------
            rt = complete + 1
            if last_retire > rt:
                rt = last_retire
            c = retire[-cw] + 1
            if c > rt:
                rt = c
            push_retire(rt)
            last_retire = rt
            prev_issue = t

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
            retire_cycles=np.array(retire[pad:], dtype=np.int64),
            stats=stats,
        )


def simulate(trace: Trace, config: MicroarchConfig) -> SimResult:
    """One-shot simulation of ``trace`` on ``config``."""
    return CPUSimulator(config).run(trace)
