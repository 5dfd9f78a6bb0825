"""Recurrent layer tests."""

import numpy as np
import pytest

from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable
from repro.features.encoder import NUM_FEATURES
from repro.ml.autograd import Tensor, concat, mse_loss, stack
from repro.ml.optim import Adam
from repro.ml.recurrent import GRU, INFER_BLOCK, LSTM

from gradcheck import check_gradients


def rng():
    return np.random.default_rng(3)


def _unrolled_lstm(lstm, x, state=None):
    """Reference: the per-step ``LSTMCell.forward`` graph the fused op
    replaces (one node per gate operation per timestep)."""
    batch, time, _ = x.shape
    state = state or lstm.initial_state(batch)
    steps = [x[:, t, :] for t in range(time)]
    final = []
    for layer in range(lstm.num_layers):
        h, c = Tensor(state[layer][0]), Tensor(state[layer][1])
        fwd = []
        for xt in steps:
            h, c = lstm.cells[layer](xt, h, c)
            fwd.append(h)
        final.append((h.data, c.data))
        if lstm.bidirectional:
            zero = Tensor(np.zeros((batch, lstm.hidden_size), dtype=np.float32))
            h, c, rev = zero, zero, []
            for xt in reversed(steps):
                h, c = lstm.cells_rev[layer](xt, h, c)
                rev.append(h)
            fwd = [concat([f, r], axis=-1) for f, r in zip(fwd, reversed(rev))]
        steps = fwd
    return stack(steps, axis=1), final


def _unrolled_gru(gru, x, state=None):
    """Reference: the per-step ``GRUCell.forward`` graph."""
    batch, time, _ = x.shape
    state = state or gru.initial_state(batch)
    steps = [x[:, t, :] for t in range(time)]
    final = []
    for cell, h0 in zip(gru.cells, state):
        h, outs = Tensor(h0), []
        for xt in steps:
            h = cell(xt, h)
            outs.append(h)
        final.append(h.data)
        steps = outs
    return stack(steps, axis=1), final


def _model(kind: str, input_size: int = 5, hidden: int = 7):
    """A 2-layer recurrent model of one kind."""
    if kind == "gru":
        return GRU(input_size, hidden, num_layers=2, rng=rng())
    return LSTM(input_size, hidden, num_layers=2,
                bidirectional=kind == "bilstm", rng=rng())


def _nonzero_state(model, batch: int, dtype=np.float32):
    g = np.random.default_rng(11)

    def draw():
        return g.normal(scale=0.5, size=(batch, model.hidden_size)).astype(dtype)

    if isinstance(model, GRU):
        return [draw() for _ in model.cells]
    return [(draw(), draw()) for _ in model.cells]


def _max_rel(actual, expected) -> float:
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


def test_lstm_output_shapes():
    lstm = LSTM(input_size=5, hidden_size=7, num_layers=2, rng=rng())
    x = Tensor(rng().normal(size=(3, 4, 5)).astype(np.float32))
    out, state = lstm(x)
    assert out.shape == (3, 4, 7)
    assert len(state) == 2
    assert state[0][0].shape == (3, 7)


def test_bilstm_doubles_output():
    bi = LSTM(input_size=5, hidden_size=6, num_layers=1, bidirectional=True,
              rng=rng())
    x = Tensor(rng().normal(size=(2, 4, 5)).astype(np.float32))
    out, _ = bi(x)
    assert out.shape == (2, 4, 12)
    assert bi.output_size == 12


def test_lstm_state_continuity():
    """Processing [A|B] in two stateful chunks == processing AB at once."""
    lstm = LSTM(input_size=4, hidden_size=5, rng=rng())
    x = rng().normal(size=(2, 8, 4)).astype(np.float32)
    full, _ = lstm(Tensor(x))
    first, state = lstm(Tensor(x[:, :4]))
    second, _ = lstm(Tensor(x[:, 4:]), state)
    np.testing.assert_allclose(second.numpy(), full.numpy()[:, 4:], atol=1e-5)


def test_lstm_fresh_state_differs_from_continued():
    lstm = LSTM(input_size=4, hidden_size=5, rng=rng())
    x = rng().normal(size=(1, 6, 4)).astype(np.float32)
    _, state = lstm(Tensor(x))
    cont, _ = lstm(Tensor(x), state)
    fresh, _ = lstm(Tensor(x))
    assert not np.allclose(cont.numpy(), fresh.numpy())


def test_lstm_causality():
    """Unidirectional LSTM output at t must not depend on inputs after t."""
    lstm = LSTM(input_size=3, hidden_size=4, rng=rng())
    x = rng().normal(size=(1, 6, 3)).astype(np.float32)
    out1, _ = lstm(Tensor(x))
    x2 = x.copy()
    x2[:, 4:] += 10.0
    out2, _ = lstm(Tensor(x2))
    np.testing.assert_allclose(out1.numpy()[:, :4], out2.numpy()[:, :4], atol=1e-6)
    assert not np.allclose(out1.numpy()[:, 4:], out2.numpy()[:, 4:])


def test_bilstm_not_causal():
    bi = LSTM(input_size=3, hidden_size=4, bidirectional=True, rng=rng())
    x = rng().normal(size=(1, 6, 3)).astype(np.float32)
    out1, _ = bi(x_t := Tensor(x))
    x2 = x.copy()
    x2[:, 5] += 10.0
    out2, _ = bi(Tensor(x2))
    assert not np.allclose(out1.numpy()[:, 0], out2.numpy()[:, 0])


def test_lstm_gradcheck():
    lstm = LSTM(input_size=3, hidden_size=3, rng=rng())
    x = Tensor(rng().normal(size=(2, 3, 3)), requires_grad=True)
    params = list(lstm.parameters())
    check_gradients(lambda: (lstm(x)[0] ** 2).sum(), params + [x])

    # float64 end to end: 2 layers continuing from a nonzero (h0, c0)
    deep = LSTM(input_size=3, hidden_size=3, num_layers=2, rng=rng())
    state = _nonzero_state(deep, 2, np.float64)
    x = Tensor(rng().normal(size=(2, 4, 3)), requires_grad=True)
    check_gradients(lambda: (deep(x, state)[0] ** 2).sum(),
                    list(deep.parameters()) + [x], atol=1e-6, rtol=1e-5)

    # bidirectional: the reverse direction and the concat feeding layer 2
    bi = LSTM(input_size=3, hidden_size=3, num_layers=2, bidirectional=True,
              rng=rng())
    x = Tensor(rng().normal(size=(2, 4, 3)), requires_grad=True)
    check_gradients(lambda: (bi(x)[0] ** 2).sum(),
                    list(bi.parameters()) + [x], atol=1e-6, rtol=1e-5)


def test_gru_shapes_and_gradcheck():
    gru = GRU(input_size=3, hidden_size=4, num_layers=2, rng=rng())
    x = Tensor(rng().normal(size=(2, 3, 3)), requires_grad=True)
    out, state = gru(x)
    assert out.shape == (2, 3, 4)
    assert len(state) == 2
    check_gradients(lambda: (gru(x)[0] ** 2).sum(), list(gru.parameters())[:2] + [x])

    # float64, every parameter of both layers, from a nonzero state
    state = _nonzero_state(gru, 2, np.float64)
    check_gradients(lambda: (gru(x, state)[0] ** 2).sum(),
                    list(gru.parameters()) + [x], atol=1e-6, rtol=1e-5)


def test_gru_state_continuity():
    gru = GRU(input_size=4, hidden_size=5, rng=rng())
    x = rng().normal(size=(2, 8, 4)).astype(np.float32)
    full, _ = gru(Tensor(x))
    first, state = gru(Tensor(x[:, :4]))
    second, _ = gru(Tensor(x[:, 4:]), state)
    np.testing.assert_allclose(second.numpy(), full.numpy()[:, 4:], atol=1e-5)


def test_input_rank_validated():
    lstm = LSTM(3, 4)
    with pytest.raises(ValueError):
        lstm(Tensor(np.ones((3, 4), dtype=np.float32)))
    with pytest.raises(ValueError):
        LSTM(3, 4, num_layers=0)


@pytest.mark.parametrize("hidden", [7, 64], ids=["h7", "h64"])
@pytest.mark.parametrize(
    "batch, time",
    [(3, 4), (1, INFER_BLOCK + 1), (1, 2 * INFER_BLOCK + 1), (3, 50)],
    ids=["b3-t4", "b1-t9", "b1-t17", "b3-t50"],
)
def test_forward_under_no_grad_routes_to_fused_path(batch, time, hidden):
    """With autograd off, LSTM/GRU forward run the same fused step loop,
    record no node and give bit-identical outputs and final state.

    A no-grad pass projects its input ``INFER_BLOCK`` steps per GEMM.  At
    batch 1 a lone remainder step would be a one-row GEMM, which
    OpenBLAS computes as a GEMV that rounds differently, so ``T = 9``
    and ``T = 17`` check that it joins the block before it; at width 7
    the two happen to agree, hence the bench width 64 too."""
    from repro.ml.autograd import no_grad

    models = {
        "lstm": LSTM(input_size=5, hidden_size=hidden, num_layers=2, rng=rng()),
        "bilstm": LSTM(5, hidden, bidirectional=True, rng=rng()),
        "gru": GRU(input_size=5, hidden_size=hidden, num_layers=2, rng=rng()),
    }
    x = rng().normal(size=(batch, time, 5)).astype(np.float32)
    for name, model in models.items():
        out_g, state_g = model(Tensor(x))
        with no_grad():
            out_n, state_n = model(Tensor(x))
        assert isinstance(out_n, Tensor) and not out_n.requires_grad
        assert out_n._parents == () and out_n._backward is None
        np.testing.assert_array_equal(out_n.numpy(), out_g.numpy(), err_msg=name)
        for got, want in zip(state_n, state_g):
            np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize("kind", ["lstm", "bilstm", "gru"])
def test_fused_layers_match_unrolled_cells(kind):
    """The one-node-per-layer ops reproduce the per-step cell graph with
    autograd on (training) and off (``infer``, the serving path): outputs
    and final state to 1e-6, parameter and input grads to 1e-5."""
    data = np.random.default_rng(7)
    x = data.normal(size=(3, 9, 5)).astype(np.float32)
    fused_model, reference_model = _model(kind), _model(kind)
    weights = data.normal(size=(3, 9, fused_model.output_size)).astype(np.float32)
    state = _nonzero_state(fused_model, 3)
    unrolled = _unrolled_gru if kind == "gru" else _unrolled_lstm

    def run(model, forward):
        xt = Tensor(x.copy(), requires_grad=True)
        out, final = forward(xt, state)
        (out * Tensor(weights)).sum().backward()
        return out.data, final, [p.grad for p in model.parameters()] + [xt.grad]

    out, final, grads = run(fused_model, fused_model)
    ref_out, ref_final, ref_grads = run(
        reference_model, lambda *args: unrolled(reference_model, *args)
    )
    for got_out, got_final in ((out, final), fused_model.infer(x, state)):
        assert np.abs(got_out - ref_out).max() <= 1e-6
        assert len(got_final) == len(ref_final)
        for got, want in zip(got_final, ref_final):
            np.testing.assert_allclose(got, want, atol=1e-6, rtol=0)
    assert len(grads) == len(ref_grads)
    for got, want in zip(grads, ref_grads):
        assert _max_rel(got, want) <= 1e-5


def _perfvec(spec: str, configs: int) -> PerfVec:
    foundation = make_foundation(spec, seed=0)
    table = MicroarchTable(configs, foundation.dim, rng=np.random.default_rng(1))
    return PerfVec(foundation, table)


def test_adam_trajectory_matches_unrolled_cells(monkeypatch):
    """20 Adam steps of PerfVec training at smoke shape (lstm-1-16,
    batch 8, chunk 32, 6 uarchs): the fused op's loss trajectory follows
    the per-step cell graph's to 1e-5."""
    data = np.random.default_rng(5)
    xs = data.normal(size=(4, 8, 32, NUM_FEATURES)).astype(np.float32)
    ys = np.tanh(xs @ data.normal(scale=0.3, size=(NUM_FEATURES, 6)))

    def trajectory() -> np.ndarray:
        model = _perfvec("lstm-1-16", 6)
        optimizer = Adam(model.parameters(), lr=1e-2)
        losses = []
        for step in range(20):
            x, y = xs[step % 4], ys[step % 4]
            optimizer.zero_grad()
            preds, _, _ = model(Tensor(x))
            loss = mse_loss(preds, y)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        return np.array(losses)

    fused = trajectory()
    monkeypatch.setattr(LSTM, "forward", _unrolled_lstm)
    reference = trajectory()
    assert np.all(np.abs(fused - reference) <= 1e-5 * np.abs(reference))
    assert fused[-1] < fused[0]


@pytest.mark.parametrize("spec", ["lstm-2-16", "gru-2-16", "bilstm-1-16"])
def test_training_step_graph_size_is_independent_of_chunk_length(monkeypatch, spec):
    """One PerfVec training step builds the same few autograd nodes at
    T=48 and T=96: recurrence lives inside one node per layer, not in a
    per-timestep graph."""
    created = []
    result = Tensor._result

    def counting(data, parents, backward):
        created.append(1)
        return result(data, parents, backward)

    monkeypatch.setattr(Tensor, "_result", staticmethod(counting))
    model = _perfvec(spec, 4)
    counts = []
    for time in (48, 96):
        data = np.random.default_rng(time)
        x = data.normal(size=(4, time, NUM_FEATURES)).astype(np.float32)
        y = data.normal(size=(4, time, 4)).astype(np.float32)
        created.clear()
        preds, _, _ = model(Tensor(x))
        loss = mse_loss(preds, y)
        loss.backward()
        counts.append(len(created))
    assert counts[0] == counts[1]
    assert counts[0] <= 16
