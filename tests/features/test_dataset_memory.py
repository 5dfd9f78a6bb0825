"""Memory bound of build_dataset: each dataset is held once.

The build writes every benchmark's rows straight into the final arrays,
so its traced peak is those arrays plus one benchmark's arrays in flight
and a fixed slack for npz buffers and the encoder's and simulator's
temporaries — not the ~2x of holding every job's output and then
concatenating them.
"""

import tracemalloc

import pytest

from repro.features.dataset import build_dataset
from repro.frontends import get_frontend
from repro.uarch import sample_configs
from repro.workloads import ALL_BENCHMARKS

INSTRUCTIONS = 1000
#: npz read/write buffers plus encode and simulate temporaries of one
#: 1,000-instruction benchmark (measured: 0.5-0.7 MB).
SLACK_BYTES = 1_500_000


def _traced_peak(build) -> tuple[int, object]:
    tracemalloc.start()
    try:
        dataset = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, dataset


@pytest.mark.parametrize("phase", ["cold", "warm"])
def test_build_holds_the_dataset_once(tmp_path, phase):
    benchmarks = list(ALL_BENCHMARKS)
    configs = sample_configs(n_ooo=1, n_inorder=0, include_presets=False)
    # traces are memoized per process; make them before measuring
    for name in benchmarks:
        get_frontend("mini-asm").trace(name, INSTRUCTIONS)

    def build():
        return build_dataset(
            benchmarks, configs, INSTRUCTIONS, cache_dir=str(tmp_path)
        )

    if phase == "warm":
        build()  # every benchmark is a cache hit below
    peak, dataset = _traced_peak(build)
    final = dataset.features.nbytes + dataset.targets.nbytes
    one = final // len(benchmarks)
    assert final > 2 * SLACK_BYTES  # the dataset outweighs the slack
    assert peak < final + one + SLACK_BYTES, (
        f"{phase} build peaked at {peak / 1e6:.2f} MB for "
        f"{final / 1e6:.2f} MB of arrays"
    )
