"""Optimizer, scheduler, data pipeline and trainer tests."""

import numpy as np
import pytest

from repro.ml.autograd import Tensor, mse_loss
from repro.ml.data import Chunk, ChunkBatches, make_chunks, split_chunks
from repro.ml.layers import MLP, Linear
from repro.ml.optim import Adam, StepLR
from repro.ml.trainer import TrainConfig, Trainer


def test_adam_minimizes_rosenbrock_ish():
    w = Tensor(np.array([2.0, 2.0]), requires_grad=True)
    opt = Adam([w], lr=0.05)
    for _ in range(2500):
        opt.zero_grad()
        x, y = w[0], w[1]
        loss = ((1.0 - x) ** 2 + (y - x * x) ** 2 * 10.0).sum()
        loss.backward()
        opt.step()
    np.testing.assert_allclose(w.data, [1.0, 1.0], atol=0.05)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)
    w = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError):
        Adam([w], lr=-1.0)


def test_steplr_schedule():
    w = Tensor(np.zeros(1), requires_grad=True)
    opt = Adam([w], lr=1e-3)
    sched = StepLR(opt, step_size=10, gamma=0.1)
    for _ in range(9):
        sched.step()
    assert opt.lr == pytest.approx(1e-3)
    sched.step()  # epoch 10
    assert opt.lr == pytest.approx(1e-4)
    for _ in range(10):
        sched.step()
    assert opt.lr == pytest.approx(1e-5)


# ---------------------------------------------------------------------------
# data pipeline
# ---------------------------------------------------------------------------
def test_make_chunks_drops_ragged_tail():
    segments = (("a", 0, 25), ("b", 25, 35))
    chunks = make_chunks(segments, chunk_len=10)
    assert len(chunks) == 3  # two from a (20 rows), one from b
    assert all(c.length == 10 for c in chunks)
    starts = {c.start for c in chunks}
    assert starts == {0, 10, 25}


def test_split_chunks_partitions():
    chunks = [Chunk("a", i * 10, 10) for i in range(100)]
    train, val, test = split_chunks(chunks, 0.1, 0.1, seed=1)
    assert len(val) == 10 and len(test) == 10 and len(train) == 80
    ids = {(c.start) for c in train} | {c.start for c in val} | {c.start for c in test}
    assert len(ids) == 100


def test_split_chunks_validation():
    with pytest.raises(ValueError):
        split_chunks([], 0.6, 0.6)


def test_chunk_batches_shapes():
    features = np.arange(40 * 3, dtype=np.float32).reshape(40, 3)
    targets = np.arange(40 * 2, dtype=np.float32).reshape(40, 2)
    chunks = make_chunks((("a", 0, 40),), chunk_len=8)
    batches = ChunkBatches(features, targets, chunks, batch_size=2, shuffle=False)
    assert len(batches) == 3  # 5 chunks in batches of 2
    xs, ys = next(iter(batches))
    assert xs.shape == (2, 8, 3)
    assert ys.shape == (2, 8, 2)
    np.testing.assert_array_equal(xs[0], features[0:8])


def test_chunk_batches_shuffle_deterministic_per_seed():
    features = np.zeros((64, 1), dtype=np.float32)
    targets = np.zeros((64, 1), dtype=np.float32)
    chunks = make_chunks((("a", 0, 64),), chunk_len=4)
    b1 = ChunkBatches(features, targets, chunks, 4, seed=5)
    b2 = ChunkBatches(features, targets, chunks, 4, seed=5)
    o1 = [x.sum() for x, _ in b1]
    o2 = [x.sum() for x, _ in b2]
    assert o1 == o2


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------
def test_trainer_fits_linear_regression():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(256, 3)).astype(np.float32)
    true_w = np.array([[1.0], [-2.0], [0.5]], dtype=np.float32)
    Y = X @ true_w
    model = Linear(3, 1, rng=rng)
    trainer = Trainer(model, TrainConfig(epochs=30, lr=0.05, lr_step=15))

    def batches():
        for i in range(0, 256, 32):
            yield X[i : i + 32], Y[i : i + 32]

    def step(batch):
        x, y = batch
        return mse_loss(model(Tensor(x)), y)

    def val():
        return float(mse_loss(model(Tensor(X)), Y).item())

    history = trainer.fit(batches, step, val)
    assert history.best_val_loss < 1e-3
    np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)
    assert len(history.train_losses) == 30


def test_trainer_restores_best_epoch_weights():
    """If later epochs diverge, the returned model is the best one."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(64, 2)).astype(np.float32)
    Y = X @ np.array([[1.0], [1.0]], dtype=np.float32)
    model = Linear(2, 1, rng=rng)
    # huge lr after epoch 3 via a custom schedule: emulate by large base lr
    trainer = Trainer(model, TrainConfig(epochs=12, lr=0.3, lr_step=50))

    def batches():
        yield X, Y

    def step(batch):
        x, y = batch
        return mse_loss(model(Tensor(x)), y)

    def val():
        return float(mse_loss(model(Tensor(X)), Y).item())

    history = trainer.fit(batches, step, val)
    final_val = val()
    assert final_val == pytest.approx(history.best_val_loss, rel=1e-5)
