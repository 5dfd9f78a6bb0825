"""A small NumPy deep-learning framework.

The paper trains PerfVec with PyTorch on A100 GPUs; that stack is not
available offline, so this package implements the required subset from
scratch: a reverse-mode autodiff engine (:mod:`~repro.ml.autograd`), the
layer zoo the paper's architecture ablation sweeps (Linear, MLP, LSTM, GRU,
biLSTM, Transformer encoder), Adam with step decay, sequence data loaders
and a best-on-validation training loop.  Gradients are verified against
finite differences in the test suite.

Importing the package pins the process's malloc thresholds
(:mod:`~repro.ml.allocator`) so training steps reuse heap pages instead
of faulting fresh mappings in every step.
"""

from repro.ml.allocator import pin_malloc_thresholds

pin_malloc_thresholds()

from repro.ml.activations import stable_sigmoid
from repro.ml.autograd import Tensor, concat, no_grad, stack
from repro.ml.inference import iter_chunk_batches
from repro.ml.layers import (
    MLP,
    Dropout,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from repro.ml.recurrent import GRU, LSTM
from repro.ml.attention import MultiHeadAttention, TransformerEncoder
from repro.ml.optim import SGD, Adam, StepLR
from repro.ml.data import ChunkBatches, split_chunks
from repro.ml.trainer import TrainConfig, Trainer
from repro.ml.serialize import load_state, save_state

__all__ = [
    "Tensor", "concat", "no_grad", "stack",
    "iter_chunk_batches", "stable_sigmoid",
    "MLP", "Dropout", "LayerNorm", "Linear", "Module", "ReLU", "Sequential",
    "Tanh",
    "GRU", "LSTM",
    "MultiHeadAttention", "TransformerEncoder",
    "SGD", "Adam", "StepLR",
    "ChunkBatches", "split_chunks",
    "TrainConfig", "Trainer",
    "load_state", "save_state",
]
