"""Micro-benchmarks of the substrates PerfVec runs on.

Not a paper table; these track the throughput of the expensive building
blocks (VM tracing, timing simulation, feature encoding, foundation
training step, program-representation inference) so performance
regressions in the hot paths are visible.  Run with pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_substrate.py
"""

import numpy as np

from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable
from repro.features import encode_trace
from repro.ml.autograd import Tensor, mse_loss
from repro.sim import CPUSimulator
from repro.uarch.presets import cortex_a7_like, skylake_like
from repro.workloads import trace_benchmark

N = 10_000


def test_vm_tracing_rate(benchmark):
    from repro.workloads.suite import clear_trace_cache

    def trace():
        clear_trace_cache()
        return trace_benchmark("505.mcf", N)

    result = benchmark(trace)
    assert len(result) == N


def test_simulator_rate_inorder(benchmark):
    trace = trace_benchmark("505.mcf", N)
    sim = CPUSimulator(cortex_a7_like())
    result = benchmark(sim.run, trace)
    assert result.total_cycles > 0


def test_simulator_rate_ooo(benchmark):
    trace = trace_benchmark("505.mcf", N)
    sim = CPUSimulator(skylake_like())
    result = benchmark(sim.run, trace)
    assert result.total_cycles > 0


def test_feature_encoding_rate(benchmark):
    trace = trace_benchmark("505.mcf", N)
    feats = benchmark(encode_trace, trace)
    assert feats.shape == (N, 51)


def test_foundation_training_step(benchmark):
    foundation = make_foundation("lstm-2-64", seed=0)
    model = PerfVec(foundation, MicroarchTable(13, 64))
    rng = np.random.default_rng(0)
    x = rng.random((16, 48, 51)).astype(np.float32)
    y = rng.random((16, 48, 13)).astype(np.float32)

    def step():
        model.zero_grad()
        preds, _, _ = model(Tensor(x))
        loss = mse_loss(preds, y)
        loss.backward()
        return loss

    loss = benchmark(step)
    assert loss.item() >= 0


def test_program_representation_inference(benchmark):
    trace = trace_benchmark("505.mcf", N)
    feats = encode_trace(trace)
    foundation = make_foundation("lstm-2-64", seed=0)
    model = PerfVec(foundation, MicroarchTable(13, 64))
    rep = benchmark(model.program_representation, feats, 48)
    assert rep.shape == (64,)

