"""Parity suite: the no-grad inference engine vs the training forward.

Inference-mode outputs match the training-mode (autograd) forward bit
for bit for every foundation architecture, and within 1e-6 for the MLP
and the full PerfVec predictor.  The LSTM/GRU ops themselves are checked
against the per-step cell reference in ``test_recurrent.py``, with
autograd on and off.  Every test runs under both old settings of the
retired ``REPRO_JIT`` switch (the ``retired_jit_switch`` fixture), which
must change nothing.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable
from repro.features.encoder import NUM_FEATURES
from repro.ml import LSTM, MLP, Linear, Tensor
from repro.ml.inference import iter_chunk_batches
from repro.ml.recurrent import INFER_BLOCK

ATOL = 1e-6
RNG = np.random.default_rng(11)
X = RNG.normal(size=(3, 17, 9)).astype(np.float32)


@pytest.fixture(autouse=True, params=["0", "1"], ids=["reference", "jit"])
def retired_jit_switch(request, monkeypatch):
    """Run every test with ``REPRO_JIT`` set to each of its old values.

    ``REPRO_JIT=1`` once sent inference to a compiled kernel tier and
    ``REPRO_JIT=0`` to numpy reference kernels.  Both tiers are gone and
    every pass runs the same ops, so a value left in a user's environment
    must not change any result.
    """
    monkeypatch.setenv("REPRO_JIT", request.param)
    return request.param


def _assert_close(a, b):
    np.testing.assert_allclose(a, b, atol=ATOL, rtol=0)


# ---------------------------------------------------------------------------
# layers and foundations
# ---------------------------------------------------------------------------
def test_linear_infer_matches_forward():
    layer = Linear(9, 5, rng=np.random.default_rng(0))
    flat = X.reshape(-1, 9)
    _assert_close(layer(Tensor(flat)).data, layer.infer(flat))


def test_mlp_infer_matches_forward():
    mlp = MLP([9, 32, 16, 4], rng=np.random.default_rng(1))
    flat = X.reshape(-1, 9)
    _assert_close(mlp(Tensor(flat)).data, mlp.infer(flat))


def _inputs(batch: int, time: int) -> np.ndarray:
    """``(batch, time, 9)`` inputs; ``_inputs(3, 17)`` equals ``X``."""
    data = np.random.default_rng(11).normal(size=(batch, time, 9))
    return data.astype(np.float32)


#: ``(spec, batch, time)``: every architecture at ``X``'s shape, then the
#: recurrent ones at the bench width over shapes that cross the no-grad
#: pass's projection blocks: batch 1 one step past a block (that step
#: must join the block before it) and a 50-step chunk.
FOUNDATION_CASES = [
    pytest.param(spec, 3, 17, id=spec)
    for spec in ("linear-1-8", "mlp-2-8", "gru-1-8", "lstm-2-8", "bilstm-1-8",
                 "transformer-1-8", "lstm-2-64")
] + [
    pytest.param(spec, batch, time, id=f"{spec}-b{batch}-t{time}")
    for spec in ("lstm-2-64", "bilstm-1-64", "gru-2-64")
    for batch, time in ((1, INFER_BLOCK + 1), (1, 2 * INFER_BLOCK + 1), (3, 50))
]


@pytest.mark.parametrize("spec, batch, time", FOUNDATION_CASES)
def test_foundation_infer_matches_forward(spec, batch, time):
    x = _inputs(batch, time)
    foundation = make_foundation(spec, input_size=9, seed=5)
    out_t, _ = foundation(Tensor(x))
    out_i, _ = foundation.infer(x)
    np.testing.assert_array_equal(out_i, out_t.data)


def test_perfvec_infer_matches_forward():
    foundation = make_foundation("lstm-2-8", input_size=9, seed=6)
    model = PerfVec(foundation, MicroarchTable(4, 8, rng=np.random.default_rng(7)))
    preds_t, reps_t, _ = model(Tensor(X))
    preds_i, reps_i, _ = model.infer(X)
    _assert_close(reps_t.data, reps_i)
    _assert_close(preds_t.data, preds_i)


def test_infer_builds_no_graph():
    lstm = LSTM(9, 13, rng=np.random.default_rng(8))
    out, _ = lstm.infer(X)
    assert isinstance(out, np.ndarray)  # raw arrays, not Tensors
    # float64 inputs run the engine in float32 as well
    wide, _ = lstm.infer(X.astype(np.float64))
    assert wide.dtype == np.float32
    np.testing.assert_array_equal(wide, out)


def test_infer_restores_training_mode():
    lstm = LSTM(9, 13, rng=np.random.default_rng(9))
    lstm.train()
    lstm.infer(X)
    assert lstm.training  # the generic Module.infer must restore the mode


# ---------------------------------------------------------------------------
# the multi-stream chunk batcher
# ---------------------------------------------------------------------------
def test_iter_chunk_batches_covers_every_row_once():
    streams = [
        RNG.normal(size=(n, 4)).astype(np.float32) for n in (65, 32, 7, 100)
    ]
    seen = [np.zeros(len(s), dtype=int) for s in streams]
    for places, batch in iter_chunk_batches(streams, chunk_len=32, batch_size=3):
        assert len(places) == len(batch) <= 3
        for row, (s, start, length) in enumerate(places):
            assert batch[row].shape == (length, 4)
            np.testing.assert_array_equal(
                batch[row], streams[s][start : start + length]
            )
            seen[s][start : start + length] += 1
    for counts in seen:
        assert (counts == 1).all()


def test_iter_chunk_batches_groups_equal_tails():
    streams = [np.ones((39, 2), np.float32), np.ones((71, 2), np.float32)]
    # both tails are 7 rows -> they must share one batch
    tail_batches = [
        places
        for places, batch in iter_chunk_batches(streams, 32, 64)
        if batch.shape[1] == 7
    ]
    assert len(tail_batches) == 1
    assert {s for s, _, _ in tail_batches[0]} == {0, 1}


def test_iter_chunk_batches_rejects_empty_stream():
    with pytest.raises(ValueError, match="empty feature stream"):
        list(iter_chunk_batches([np.empty((0, 4), np.float32)], 32, 4))


def test_multi_stream_engine_matches_per_stream():
    foundation = make_foundation("lstm-1-8", input_size=4, seed=10)
    model = PerfVec(foundation, MicroarchTable(3, 8, rng=np.random.default_rng(1)))
    streams = [
        RNG.normal(size=(n, 4)).astype(np.float32) for n in (65, 32, 7)
    ]
    together = model.program_representations(streams, chunk_len=32)
    for s, stream in enumerate(streams):
        alone = model.program_representation(stream, chunk_len=32)
        np.testing.assert_allclose(together[s], alone, atol=ATOL)


# ---------------------------------------------------------------------------
# engine memory
# ---------------------------------------------------------------------------
#: Traced-allocation bound of one bench-shape engine pass (below).
ENGINE_PASS_PEAK_BYTES = 8 * 2**20


def test_engine_pass_keeps_no_gradient_history():
    """One ``program_representations`` pass at the bench shape
    (``lstm-2-64``, chunk 48, serving batch 256, a 6,000-row stream: one
    batch of 125 chunks) stays under 8 MiB of traced allocations.  It
    peaks at 6.7 MiB holding each layer's outputs and one block of input
    projections; keeping every step's gates and cell state, as a pass
    that records a node does, takes 13.6 MiB."""
    foundation = make_foundation("lstm-2-64", seed=0)
    table = MicroarchTable(4, foundation.dim, rng=np.random.default_rng(1))
    model = PerfVec(foundation, table)
    stream = RNG.normal(size=(6000, NUM_FEATURES)).astype(np.float32)
    tracemalloc.start()
    try:
        model.program_representations([stream], chunk_len=48, batch_size=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ENGINE_PASS_PEAK_BYTES
