"""Unit tests for dataset assembly and caching."""

import numpy as np
import pytest

from repro.features.dataset import TraceDataset, build_dataset
from repro.uarch import sample_configs
from repro.uarch.presets import cortex_a7_like, skylake_like


def configs2():
    return [cortex_a7_like(), skylake_like()]


def test_build_dataset_shapes(tmp_path):
    ds = build_dataset(
        ["999.specrand", "505.mcf"], configs2(), 1500, cache_dir=str(tmp_path)
    )
    assert len(ds) == 3000
    assert ds.features.shape == (3000, 51)
    assert ds.targets.shape == (3000, 2)
    assert ds.num_configs == 2
    assert ds.benchmark_names == ["999.specrand", "505.mcf"]


def test_segments_partition_rows(tmp_path):
    ds = build_dataset(
        ["999.specrand", "505.mcf"], configs2(), 1000, cache_dir=str(tmp_path)
    )
    f, t = ds.segment("505.mcf")
    assert f.shape == (1000, 51)
    np.testing.assert_array_equal(f, ds.features[1000:2000])
    with pytest.raises(KeyError):
        ds.segment("519.lbm")


def test_targets_match_direct_simulation(tmp_path):
    from repro.sim import simulate
    from repro.workloads import get_trace

    ds = build_dataset(["548.exchange2"], configs2(), 800, cache_dir=None)
    trace = get_trace("548.exchange2", 800)
    direct = simulate(trace, cortex_a7_like()).incremental_latencies
    np.testing.assert_allclose(ds.targets[:, 0], direct)


def test_total_times_sum_targets(tmp_path):
    ds = build_dataset(["999.specrand"], configs2(), 700, cache_dir=None)
    totals = ds.total_times()["999.specrand"]
    np.testing.assert_allclose(
        totals, ds.targets.astype(np.float64).sum(axis=0), rtol=1e-12
    )


def test_cache_roundtrip(tmp_path):
    kwargs = dict(
        benchmarks=["505.mcf"], configs=configs2(), max_instructions=600,
        cache_dir=str(tmp_path),
    )
    a = build_dataset(**kwargs)
    # one merged entry (targets) plus one feature entry (the stream)
    merged = [f for f in tmp_path.iterdir() if f.is_file()]
    assert len(merged) == 1
    assert sorted(f.name for f in tmp_path.iterdir() if f.is_dir()) == [
        "features"
    ]
    assert len(list((tmp_path / "features").iterdir())) == 1
    with np.load(merged[0]) as data:
        assert data.files == ["targets"]
    b = build_dataset(**kwargs)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_cache_distinguishes_configs(tmp_path):
    base = dict(benchmarks=["505.mcf"], max_instructions=500, cache_dir=str(tmp_path))
    build_dataset(configs=configs2(), **base)
    build_dataset(configs=[cortex_a7_like()], **base)
    assert len([f for f in tmp_path.iterdir() if f.is_file()]) == 2
    # both config lists share the benchmark's one feature entry
    assert len(list((tmp_path / "features").iterdir())) == 1


def test_select_configs(tmp_path):
    ds = build_dataset(["999.specrand"], configs2(), 500, cache_dir=None)
    sub = ds.select_configs([1])
    assert sub.config_names == ("skylake-like",)
    np.testing.assert_array_equal(sub.targets[:, 0], ds.targets[:, 1])


def test_duplicate_config_names_rejected():
    with pytest.raises(ValueError):
        build_dataset(
            ["999.specrand"], [cortex_a7_like(), cortex_a7_like()], 100,
            cache_dir=None,
        )


def test_empty_args_rejected():
    with pytest.raises(ValueError):
        build_dataset([], configs2(), 100, cache_dir=None)
    with pytest.raises(ValueError):
        build_dataset(["505.mcf"], [], 100, cache_dir=None)


def test_many_configs_columns(tmp_path):
    configs = sample_configs(n_ooo=3, n_inorder=1, seed=5, include_presets=False)
    ds = build_dataset(["557.xz"], configs, 400, cache_dir=None)
    assert ds.targets.shape == (400, 4)
    # different microarchitectures must produce different latencies
    assert not np.allclose(ds.targets[:, 0], ds.targets[:, 1])
