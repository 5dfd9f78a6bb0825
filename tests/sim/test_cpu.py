"""Timing-model tests: absolute sanity plus directional invariants.

A timing simulator has no external bit-exact oracle; what must hold are
the first-order architecture laws: more cache -> fewer misses -> less
time, wider/out-of-order cores -> higher IPC, latency-bound kernels
insensitive to bandwidth, and the incremental-latency identity PerfVec
relies on.  A golden digest over the suite pins the simulator's exact
output, so a speed-only rewrite must reproduce every retire cycle and
statistic bit for bit.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.isa import assemble
from repro.sim import CPUSimulator, simulate
from repro.uarch import PRESETS, presets, sample_configs
from repro.uarch.config import CoreKind, PredictorKind
from repro.vm import run_program
from repro.workloads import ALL_BENCHMARKS, trace_benchmark
from repro.workloads.kernels import graph, linear_algebra


def tiny_trace():
    return run_program(
        assemble(
            """
            main: movi r1, 10
            loop: subi r1, r1, 1
                  bnez r1, loop
                  halt
            """
        )
    )


def test_retire_times_monotone_everywhere():
    trace = trace_benchmark("505.mcf", 5000)
    for cfg in sample_configs(n_ooo=3, n_inorder=2, seed=3, include_presets=False):
        res = simulate(trace, cfg)
        assert np.all(np.diff(res.retire_cycles) >= 0), cfg.name


def test_incremental_latency_identity():
    """sum of incremental latencies == total execution time (paper Sec. III-B)."""
    trace = trace_benchmark("557.xz", 4000)
    res = simulate(trace, presets.preset("cortex-a7-like"))
    total_ticks = res.incremental_latencies.astype(np.float64).sum()
    # float32 tick storage quantizes; the identity holds to fp32 precision
    assert total_ticks == pytest.approx(res.total_time_ns * 10.0, rel=1e-6)
    assert np.all(res.incremental_latencies >= 0)


def test_ipc_bounded_by_commit_width():
    trace = trace_benchmark("999.specrand", 5000)
    for name in ("cortex-a7-like", "skylake-like"):
        cfg = presets.preset(name)
        res = simulate(trace, cfg)
        assert 0 < res.ipc <= cfg.core.commit_width


def test_ooo_beats_inorder_on_ilp_kernel():
    """Isolate core kind: same frequency, caches and memory; only the
    window/widths differ.  The FP chains of cactuBSSN leave ILP that only
    the out-of-order core can exploit."""
    from repro.uarch.config import FUConfig

    trace = trace_benchmark("507.cactuBSSN", 30_000)
    base = presets.preset("cortex-a7-like")
    ooo_core = dataclasses.replace(
        base.core,
        kind=CoreKind.OUT_OF_ORDER, rob_size=128,
        fetch_width=4, issue_width=4, commit_width=4, mshrs=16,
        int_alu=FUConfig(4, 1), fp_add=FUConfig(2, 4), fp_mul=FUConfig(2, 5),
    )
    ooo_cfg = dataclasses.replace(base, name="a7-ooo", core=ooo_core)
    io = simulate(trace, base)
    ooo = simulate(trace, ooo_cfg)
    assert ooo.ipc > 1.2 * io.ipc


def test_bigger_cache_never_hurts_misses():
    trace = trace_benchmark("519.lbm", 10000)
    base = presets.preset("cortex-a7-like")
    small = simulate(trace, base.with_cache_sizes(l1d_kb=4))
    large = simulate(trace, base.with_cache_sizes(l1d_kb=128))
    assert large.stats["l1d_misses"] <= small.stats["l1d_misses"]
    assert large.total_cycles <= small.total_cycles


def test_latency_bound_kernel_feels_memory_latency():
    prog = graph.pointer_chase(n=4096, steps=4096, reps=10)
    trace = run_program(prog, max_instructions=20_000)
    base = presets.preset("cortex-a7-like")
    fast_mem = dataclasses.replace(
        base, name="fastmem",
        memory=dataclasses.replace(base.memory, latency_ns=30.0),
    )
    slow_mem = dataclasses.replace(
        base, name="slowmem",
        memory=dataclasses.replace(base.memory, latency_ns=300.0),
    )
    fast = simulate(trace, fast_mem)
    slow = simulate(trace, slow_mem)
    assert slow.total_cycles > 1.5 * fast.total_cycles


def test_frequency_scales_time_not_cycles():
    trace = trace_benchmark("548.exchange2", 4000)
    base = presets.preset("microcontroller-like")
    fast = dataclasses.replace(
        base, name="fast", core=dataclasses.replace(base.core, freq_ghz=1.6),
    )
    r1 = simulate(trace, base)
    r2 = simulate(trace, fast)
    # compute-bound kernel: cycles roughly stable, wall time halves
    assert r2.total_time_ns < 0.7 * r1.total_time_ns


def test_mispredict_penalty_slows_branchy_code():
    trace = trace_benchmark("531.deepsjeng", 6000)
    base = presets.preset("cortex-a7-like")
    harsh = dataclasses.replace(
        base, name="harsh",
        branch=dataclasses.replace(base.branch, mispredict_penalty=30),
    )
    assert simulate(trace, harsh).total_cycles > simulate(trace, base).total_cycles


def test_stats_are_consistent():
    trace = trace_benchmark("505.mcf", 5000)
    res = simulate(trace, presets.preset("cortex-a72-like"))
    s = res.stats
    assert s["instructions"] == 5000
    assert s["mispredicts"] <= s["branches"]
    assert s["l1d_hits"] + s["l1d_misses"] >= int(trace.is_mem.sum())
    assert s["mem_accesses"] <= s["l1d_misses"] + s["l1i_misses"] + 1


def test_simulator_reusable_and_deterministic():
    trace = tiny_trace()
    sim = CPUSimulator(presets.preset("cortex-a7-like"))
    a = sim.run(trace)
    b = sim.run(trace)
    np.testing.assert_array_equal(a.retire_cycles, b.retire_cycles)


def test_empty_trace_rejected():
    import dataclasses as dc

    trace = tiny_trace()
    empty = dc.replace(
        trace,
        pc=trace.pc[:0], opid=trace.opid[:0],
        src_slots=trace.src_slots[:0], dst_slots=trace.dst_slots[:0],
        mem_addr=trace.mem_addr[:0], branch_taken=trace.branch_taken[:0],
        branch_target=trace.branch_target[:0], fault=trace.fault[:0],
    )
    with pytest.raises(ValueError):
        simulate(empty, presets.preset("cortex-a7-like"))


def test_all_sampled_configs_simulate():
    trace = trace_benchmark("500.perlbench", 2000)
    for cfg in sample_configs(n_ooo=4, n_inorder=2, seed=11, include_presets=False):
        res = simulate(trace, cfg)
        assert res.total_cycles > 0
        assert len(res) == 2000


def test_inorder_does_not_use_rob_constraint():
    """In-order cores must order issue by program order, not a window."""
    trace = trace_benchmark("508.namd", 3000)
    cfg = presets.preset("cortex-a7-like")
    assert cfg.core.kind is CoreKind.IN_ORDER
    res = simulate(trace, cfg)
    assert res.total_cycles > 0


def test_matmul_faster_with_bigger_l1_until_fits():
    """Capacity effect visible on a working set that fits in 32k but not 4k."""
    prog = linear_algebra.matmul(n=24, tile=8, reps=3)  # ~13.8 kB matrices
    trace = run_program(prog, max_instructions=60_000)
    base = presets.preset("cortex-a7-like")
    t4 = simulate(trace, base.with_cache_sizes(l1d_kb=4)).total_cycles
    t32 = simulate(trace, base.with_cache_sizes(l1d_kb=32)).total_cycles
    t128 = simulate(trace, base.with_cache_sizes(l1d_kb=128)).total_cycles
    assert t32 < t4
    assert abs(t128 - t32) / t32 < 0.15  # already fits: little further gain


# ---------------------------------------------------------------------------
# Golden digest: the exact output of the simulator, pinned.
# ---------------------------------------------------------------------------
#: Exercises what no suite kernel issues (``fence``) next to dividers,
#: call/return through the RAS and an indirect jump through the BTB.
CONTROL_MIX_ASM = """
.data
buf: .space 1024
.text
main:  movi r1, buf
       movi r2, 40
       movi r7, 3
       fmovi f3, 1.5
loop:  ld   r3, [r1]
       addi r3, r3, 7
       st   r3, [r1 + 8]
       div  r4, r3, r7
       rem  r5, r3, r7
       fence
       call work
       movi r6, back
       jr   r6
back:  addi r1, r1, 16
       subi r2, r2, 1
       bnez r2, loop
       halt
work:  mul  r8, r4, r5
       itof f1, r8
       fdiv f2, f1, f3
       ret
"""

#: sha256 over every (trace, config) result of the test below.  Only a
#: change to the modelled timing may move it; a speed-only change may not.
GOLDEN_DIGEST = "b12fd1e55733283e77e3b346aa74bbc9a154af9d53f8d2fa017033a1ebc7abd1"


def golden_configs():
    """The bench scale's 13 sampled uarchs plus the 7 presets: every
    predictor kind, exclusive and inclusive L2, in-order and OoO cores,
    unpipelined dividers."""
    bench = sample_configs(n_ooo=10, n_inorder=3, seed=0, include_presets=False)
    return [*bench, *PRESETS.values()]


def result_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.config_name.encode())
        h.update(np.ascontiguousarray(res.retire_cycles, dtype=np.int64).tobytes())
        h.update(repr(sorted(res.stats.items())).encode())
    return h.hexdigest()


def test_golden_digest_over_suite_and_control_mix():
    configs = golden_configs()
    assert {c.branch.kind for c in configs} == set(PredictorKind)
    assert {c.l2_exclusive for c in configs} == {False, True}
    assert {c.core.kind for c in configs} == set(CoreKind)
    traces = [trace_benchmark(name, 1000) for name in ALL_BENCHMARKS]
    traces.append(run_program(assemble(CONTROL_MIX_ASM)))
    # at bench length the pointer chase queues loads for MSHRs often
    # enough that where a waiting load books its issue slot shows
    traces.append(trace_benchmark("505.mcf", 6000))
    results = [simulate(t, cfg) for t in traces for cfg in configs]
    assert result_digest(results) == GOLDEN_DIGEST


def test_run_order_never_changes_results():
    """Timing traces A, B, A config-major (every run on a new trace) and
    trace-major (consecutive runs share one) give identical results.
    B has A's name and length but different content."""
    a = trace_benchmark("505.mcf", 1000)
    b = trace_benchmark("505.mcf", 1000, seed=1)
    assert a.name == b.name and len(a) == len(b)
    assert not np.array_equal(a.mem_addr, b.mem_addr)
    traces = [a, b, a]
    configs = golden_configs()[::4]
    config_major = {
        (j, k): CPUSimulator(cfg).run(t)
        for k, cfg in enumerate(configs) for j, t in enumerate(traces)
    }
    trace_major = {
        (j, k): CPUSimulator(cfg).run(t)
        for j, t in enumerate(traces) for k, cfg in enumerate(configs)
    }
    for key, res in config_major.items():
        other = trace_major[key]
        assert res.config_name == other.config_name
        assert res.freq_ghz == other.freq_ghz
        np.testing.assert_array_equal(res.retire_cycles, other.retire_cycles)
        assert res.stats == other.stats
    for k in range(len(configs)):
        np.testing.assert_array_equal(
            config_major[0, k].retire_cycles, config_major[2, k].retire_cycles
        )
    assert any(
        config_major[0, k].stats != config_major[1, k].stats
        for k in range(len(configs))
    )
