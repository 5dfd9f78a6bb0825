"""The allocator policy keeps training steps from faulting pages in.

Without pinned malloc thresholds, glibc maps every multi-megabyte
training temporary afresh and each ``lstm-2-64`` step at the bench batch
shape takes ~1,060 minor page faults; with them the step reuses heap
pages.  A fresh process is needed: this one's allocator history (large
blocks freed by earlier tests) would raise glibc's dynamic threshold and
hide the difference.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.ml.allocator import pin_malloc_thresholds

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not pin_malloc_thresholds(),
    reason="needs Linux with glibc's mallopt",
)

#: Runs in a fresh interpreter; prints minor faults per training step
#: after warm-up.
PROBE = r"""
import json, resource
import numpy as np
from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import TICK_SCALE, MicroarchTable
from repro.ml import Tensor, TrainConfig, Trainer
from repro.ml.autograd import mse_loss

WARMUP, STEPS = 8, 32
foundation = make_foundation("lstm-2-64", seed=0)
model = PerfVec(foundation, MicroarchTable(13, foundation.dim))
rng = np.random.default_rng(0)
batches = [(rng.random((16, 48, 51), dtype=np.float32),
            rng.random((16, 48, 13), dtype=np.float32)) for _ in range(4)]
faults = []

def train_step(batch):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    x, y = batch
    preds, _, _ = model(Tensor(x))
    return mse_loss(preds, y * TICK_SCALE)

steps = (batches[i % len(batches)] for i in range(WARMUP + STEPS + 1))
Trainer(model, TrainConfig(epochs=1)).fit(lambda: steps, train_step,
                                          lambda: 0.0)
print(json.dumps((faults[-1] - faults[WARMUP]) / STEPS))
"""


def test_training_steps_take_no_page_faults():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        check=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    faults_per_step = json.loads(out.stdout.strip().splitlines()[-1])
    assert faults_per_step < 50
