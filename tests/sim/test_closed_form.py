"""Closed-form tests: micro-traces whose steady state follows by hand.

Each loop runs ``subi r1; bnez r1`` as its control, so every iteration
ends in a taken branch that ends its fetch bundle, and the predictor
(every kind starts weakly taken or is backward-taken static) mispredicts
only the not-taken exit.  The steady state is read as retire-cycle
differences between the first instructions of middle iterations: the
first iterations pay cold L1I misses (straight-line code is I-cache
bound, see the last test), so whole-trace CPI would measure the cache.

A loop body of ``m`` ALU instructions (the branch compares on an ALU
too) cannot iterate faster than its narrowest width allows::

    ceil(m / fetch_width)   (the taken branch ends the fetch bundle)
    m / issue_width,  m / ALU count,  m / commit_width
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.isa import assemble
from repro.sim import simulate
from repro.sim.memory import DRAMModel
from repro.uarch import PRESETS
from repro.uarch.config import FUConfig
from repro.vm import run_program

ITERATIONS = 400


def loop_trace(body: list[str], iterations: int = ITERATIONS):
    """``movi r1, iterations`` then ``body; subi; bnez`` per iteration."""
    lines = [f"main: movi r1, {iterations}"]
    lines += [f"loop: {insn}" if i == 0 else f"      {insn}"
              for i, insn in enumerate([*body, "subi r1, r1, 1"])]
    lines += ["      bnez r1, loop", "      halt"]
    return run_program(assemble("\n".join(lines)))


def cycles_per_iteration(result, body_len: int,
                         iterations: int = ITERATIONS) -> float:
    """Mean retire-cycle distance between the first instructions of
    iterations a quarter and three quarters of the way through."""
    lo, hi = iterations // 4, 3 * iterations // 4
    r = result.retire_cycles
    # iteration j starts at instruction 1 + j * body_len (after the movi)
    return (int(r[1 + hi * body_len]) - int(r[1 + lo * body_len])) / (hi - lo)


def width_bound(cfg, m: int) -> float:
    core = cfg.core
    return max(math.ceil(m / core.fetch_width), m / core.issue_width,
               m / core.int_alu.count, m / core.commit_width)


def with_alu_latency(cfg, latency: int):
    core = dataclasses.replace(
        cfg.core, int_alu=FUConfig(cfg.core.int_alu.count, latency))
    return dataclasses.replace(cfg, name=f"{cfg.name}-alu{latency}", core=core)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_taken_loop_iterates_once_per_cycle(name):
    """``subi; bnez``: the subi chain needs the ALU latency, the taken
    branch one fetch cycle; on every preset that is one cycle, except the
    single-issue microcontroller, which needs two."""
    cfg = PRESETS[name]
    result = simulate(loop_trace([]), cfg)
    expected = max(cfg.core.int_alu.latency, width_bound(cfg, 2))
    assert cycles_per_iteration(result, 2) == expected
    assert expected == (2 if cfg.core.issue_width == 1 else 1)
    assert result.stats["mispredicts"] == 1


@pytest.mark.parametrize("latency", [1, 3])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dependent_add_chain_runs_at_alu_latency(name, latency):
    """Eight adds chained through r2 (across iterations too) take the
    ALU latency each wherever the loop control can issue beside them."""
    cfg = with_alu_latency(PRESETS[name], latency)
    chain = 8
    result = simulate(loop_trace(["add r2, r2, r3"] * chain), cfg)
    if cfg.core.issue_width == 1:
        # single issue, in order: subi issues the cycle after the last
        # add, bnez waits the ALU latency for it, and the next
        # iteration's first add issues the cycle after bnez
        expected = (chain - 1) * latency + 1 + latency + 1
    else:
        expected = chain * latency
        assert expected >= width_bound(cfg, chain + 2)
    assert cycles_per_iteration(result, chain + 2) == expected
    assert result.stats["mispredicts"] == 1


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_independent_adds_run_at_narrowest_width(name):
    """Ten adds with no dependences: only the narrowest of fetch, issue,
    ALU and commit width bounds them (twelve ALU ops per iteration)."""
    cfg = PRESETS[name]
    body = [f"addi r{4 + j}, r0, {j}" for j in range(10)]
    result = simulate(loop_trace(body), cfg)
    core = cfg.core
    narrowest = min(core.fetch_width, core.issue_width,
                    core.int_alu.count, core.commit_width)
    assert cycles_per_iteration(result, 12) == width_bound(cfg, 12) == 12 / narrowest
    assert result.stats["mispredicts"] == 1


@pytest.mark.parametrize("name", ["skylake-like", "cortex-a7-like",
                                  "microcontroller-like"])
def test_straight_line_code_is_icache_bound(name):
    """2,000 straight-line adds miss L1I (and the cold L2) once per line;
    each line then costs its fill from memory plus its fetch bundles."""
    cfg = PRESETS[name]
    trace = run_program(assemble(
        "main: " + "\n      ".join(["addi r2, r2, 1"] * 2000) + "\n      halt"))
    result = simulate(trace, cfg)
    line_bytes = cfg.l1i.line_bytes
    per_line = line_bytes // 4  # instructions are 4 bytes
    assert result.stats["l1i_misses"] == len(np.unique(trace.pc // line_bytes))
    dram = DRAMModel(cfg.memory, cfg.core.freq_ghz, line_bytes)
    fill = cfg.l2.latency + dram.latency_cycles + dram.transfer_cycles
    expected = fill + math.ceil(per_line / cfg.core.fetch_width)
    deltas = np.diff(result.retire_cycles[::per_line])
    assert set(deltas[5:-5].tolist()) == {expected}
