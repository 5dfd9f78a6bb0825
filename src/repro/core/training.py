"""Foundation training: microarchitecture sampling + representation reuse.

The two efficiency ideas of Sec. IV, both embodied in one training step:

* **Microarchitecture sampling** — instead of a parametric uarch model,
  only a k-row table is trained jointly with the foundation.
* **Instruction representation reuse** — each chunk's representations are
  computed *once* and combined with all k table rows in a single
  ``(B·L, d) @ (d, k)`` matmul; backpropagation through the expensive
  foundation happens once per step regardless of k.  The naive alternative
  (one microarchitecture per step) costs k foundation passes —
  :func:`naive_training_step_cost` measures exactly that ratio, which is
  the paper's 26 days -> 8 hours argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable, TICK_SCALE
from repro.features.dataset import TraceDataset
from repro.ml.autograd import Tensor, mse_loss, no_grad
from repro.ml.data import ChunkBatches, make_chunks, split_chunks
from repro.ml.trainer import TrainConfig, Trainer, TrainHistory


@dataclass
class FoundationTrainConfig:
    """Hyper-parameters for foundation training (paper Sec. IV-D defaults,
    scaled for an offline CPU run)."""

    spec: str = "lstm-2-256"
    chunk_len: int = 64  # the context window c analogue
    batch_size: int = 16
    epochs: int = 50
    lr: float = 1e-3
    lr_step: int = 10
    lr_gamma: float = 0.1
    val_frac: float = 0.05
    test_frac: float = 0.05
    seed: int = 0
    verbose: bool = False


def _dataset_batches(dataset: TraceDataset, chunks, batch_size: int, seed: int,
                     shuffle: bool) -> ChunkBatches:
    scaled_targets = dataset.targets  # scaling applied in the loss step
    return ChunkBatches(
        dataset.features, scaled_targets, chunks, batch_size,
        shuffle=shuffle, seed=seed,
    )


def train_foundation(
    dataset: TraceDataset,
    config: FoundationTrainConfig | None = None,
) -> tuple[PerfVec, TrainHistory]:
    """Jointly train a foundation model and microarchitecture table."""
    config = config or FoundationTrainConfig()
    foundation = make_foundation(config.spec, seed=config.seed)
    table = MicroarchTable(
        dataset.num_configs, foundation.dim,
        config_names=dataset.config_names,
        rng=np.random.default_rng(config.seed + 1),
    )
    model = PerfVec(foundation, table)

    chunks = make_chunks(dataset.segments, config.chunk_len)
    train_chunks, val_chunks, _ = split_chunks(
        chunks, config.val_frac, config.test_frac, seed=config.seed
    )
    if not train_chunks:
        raise ValueError("dataset too small for the requested chunk length")
    train_batches = _dataset_batches(
        dataset, train_chunks, config.batch_size, config.seed, shuffle=True
    )
    val_batches = (
        _dataset_batches(dataset, val_chunks, config.batch_size, config.seed,
                         shuffle=False)
        if val_chunks
        else None
    )

    def train_step(batch):
        x, y = batch
        preds, _, _ = model(Tensor(x))
        return mse_loss(preds, y * TICK_SCALE)

    def val_loss() -> float:
        if val_batches is None:
            return float("nan")
        total = 0.0
        count = 0
        with no_grad():
            for x, y in val_batches:
                preds, _, _ = model(Tensor(x))
                total += float(mse_loss(preds, y * TICK_SCALE).item()) * len(x)
                count += len(x)
        return total / max(count, 1)

    trainer = Trainer(
        model,
        TrainConfig(
            epochs=config.epochs, lr=config.lr, lr_step=config.lr_step,
            lr_gamma=config.lr_gamma, verbose=config.verbose,
        ),
    )
    history = trainer.fit(lambda: iter(train_batches), train_step, val_loss)
    return model, history


def naive_training_step_cost(
    dataset: TraceDataset,
    config: FoundationTrainConfig | None = None,
    steps: int = 4,
) -> dict[str, float]:
    """Measure reuse vs naive per-microarchitecture training cost.

    Runs ``steps`` batches, each through one reuse step and then one
    naive step, and reports each regime's median seconds per step plus
    the speedup (their ratio); the naive regime performs one foundation
    forward/backward per microarchitecture column, which is what the
    paper's 26-day estimate extrapolates.  The regimes alternate batch
    by batch, so a slow phase of a shared host reaches both, and a step
    is charged the CPU time of the calling thread (``thread_time``):
    wall-clock steps of a few milliseconds swing 3x with a concurrent
    process's load, and so does process CPU time, which counts the BLAS
    worker threads spinning between calls.
    """
    config = config or FoundationTrainConfig()
    k = dataset.num_configs
    foundation = make_foundation(config.spec, seed=config.seed)
    table = MicroarchTable(k, foundation.dim, config_names=dataset.config_names)
    model = PerfVec(foundation, table)
    chunks = make_chunks(dataset.segments, config.chunk_len)
    batches = _dataset_batches(dataset, chunks, config.batch_size, config.seed,
                               shuffle=False)
    from repro.ml.optim import Adam

    optimizer = Adam(model.parameters(), lr=config.lr)

    iterator = iter(batches)
    batch_list = [next(iterator) for _ in range(min(steps, len(batches)))]

    # warm both paths once (BLAS planning, allocator growth) before timing
    wx, wy = batch_list[0]
    preds, _, _ = model(Tensor(wx))
    mse_loss(preds, wy * TICK_SCALE).backward()
    model.zero_grad()
    reps, _ = model.foundation(Tensor(wx))
    col = reps @ model.table.table[0:1, :].transpose()
    mse_loss(col, wy[:, :, 0:1] * TICK_SCALE).backward()
    model.zero_grad()

    reuse_times, naive_times = [], []
    for x, y in batch_list:
        start = time.thread_time()
        optimizer.zero_grad()
        preds, _, _ = model(Tensor(x))
        mse_loss(preds, y * TICK_SCALE).backward()
        optimizer.step()
        reuse_times.append(time.thread_time() - start)

        start = time.thread_time()
        for j in range(k):
            optimizer.zero_grad()
            reps, _ = model.foundation(Tensor(x))
            col = reps @ model.table.table[j : j + 1, :].transpose()
            mse_loss(col, y[:, :, j : j + 1] * TICK_SCALE).backward()
            optimizer.step()
        naive_times.append(time.thread_time() - start)
    reuse_time = float(np.median(reuse_times))
    naive_time = float(np.median(naive_times))

    return {
        "configs": float(k),
        "reuse_seconds_per_step": reuse_time,
        "naive_seconds_per_step": naive_time,
        "speedup": naive_time / reuse_time,
    }
