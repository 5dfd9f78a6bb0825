"""Unseen-microarchitecture fine-tuning and the parametric uarch model."""

import numpy as np
import pytest

from repro.core.dse import CacheDSE, cache_objective
from repro.core.finetune import fit_table_least_squares, learn_unseen_uarch_table
from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable, TICK_SCALE
from repro.core.uarch_model import cache_size_params, train_uarch_model
from repro.features import encode_trace
from repro.features.dataset import build_dataset
from repro.uarch import presets, sample_configs
from repro.workloads import trace_benchmark


@pytest.fixture(scope="module")
def model():
    foundation = make_foundation("lstm-1-16", seed=5)
    table = MicroarchTable(3, 16, rng=np.random.default_rng(6))
    return PerfVec(foundation, table)


@pytest.fixture(scope="module")
def tuning_data():
    configs = sample_configs(n_ooo=2, n_inorder=1, seed=9, include_presets=False)
    ds = build_dataset(["999.specrand", "525.x264"], configs, 1500, cache_dir=None)
    return ds


def test_lstsq_solves_exactly():
    """On targets generated by a known table, lstsq recovers it."""
    rng = np.random.default_rng(0)
    reps = rng.normal(size=(500, 8)).astype(np.float32)
    true_table = rng.normal(size=(4, 8)).astype(np.float32)
    targets = (reps @ true_table.T) / TICK_SCALE  # ticks
    solved = fit_table_least_squares(reps, targets)
    np.testing.assert_allclose(solved, true_table, atol=1e-3)


def test_lstsq_validates_shapes():
    with pytest.raises(ValueError):
        fit_table_least_squares(np.zeros((4, 3)), np.zeros((5, 2)))


def test_learn_unseen_table_is_the_closed_form(model, tuning_data):
    names = ("new-a", "new-b", "new-c")
    table = learn_unseen_uarch_table(
        model, tuning_data.features, tuning_data.targets, config_names=names
    )
    reps = model.instruction_representations(tuning_data.features, chunk_len=64)
    np.testing.assert_array_equal(
        table.table.data, fit_table_least_squares(reps, tuning_data.targets)
    )
    assert table.config_names == names


def test_frozen_foundation_unchanged(model, tuning_data):
    before = {k: v.copy() for k, v in model.foundation.state_dict().items()}
    learn_unseen_uarch_table(model, tuning_data.features, tuning_data.targets)
    after = model.foundation.state_dict()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])


def test_uarch_model_fits_tuning_latencies(model):
    """The parametric uarch model must regress per-instruction latencies far
    better than a constant-mean baseline on its tuning set."""
    base = presets.preset("cortex-a7-like")
    dse = CacheDSE(base, l1_sizes=(4, 32), l2_sizes=(256, 1024))
    ds = build_dataset(["505.mcf"], dse.configs, 2000, cache_dir=None)
    uarch = train_uarch_model(
        model, dse.configs, ds.features, ds.targets, epochs=300, seed=1
    )
    reps = model.instruction_representations(ds.features, chunk_len=64)
    m = uarch.representations(dse.configs, cache_size_params)
    preds = (reps @ m.T) / TICK_SCALE
    model_mse = float(np.mean((preds - ds.targets) ** 2))
    baseline_mse = float(
        np.mean((ds.targets.mean(axis=0, keepdims=True) - ds.targets) ** 2)
    )
    assert model_mse < 0.7 * baseline_mse


def test_uarch_model_target_validation(model):
    with pytest.raises(ValueError):
        train_uarch_model(
            model, [presets.preset("cortex-a7-like")],
            np.zeros((10, 51), dtype=np.float32), np.zeros((10, 3)),
        )


# ---------------------------------------------------------------------------
# DSE machinery
# ---------------------------------------------------------------------------
def test_cache_objective_formula():
    assert cache_objective(32, 512, 2.0) == (1000 + 320 + 512) * 2.0


def test_dse_grid_size_matches_paper():
    dse = CacheDSE(presets.preset("cortex-a7-like"))
    assert len(dse) == 36  # 6 x 6 as in Sec. VI-A


def test_dse_objective_surface_shape():
    dse = CacheDSE(presets.preset("cortex-a7-like"))
    times = np.ones(36)
    surface = dse.objective_surface(times)
    assert surface.shape == (6, 6)
    # area grows with cache sizes, so the objective grows monotonically
    assert np.all(np.diff(surface, axis=0) > 0)
    assert np.all(np.diff(surface, axis=1) > 0)


def test_dse_rank_quality():
    true_obj = np.array([5.0, 1.0, 2.0, 3.0])
    pred_picks_second_best = np.array([9.0, 5.0, 1.0, 9.0])
    q = CacheDSE.rank_quality(pred_picks_second_best, true_obj)
    assert q.chosen_index == 2
    assert q.rank == 2
    assert q.frac_better == 0.25
    assert not q.is_optimal
    assert q.within_top(2)


def test_dse_sample_configs_bounds():
    dse = CacheDSE(presets.preset("cortex-a7-like"))
    picks = dse.sample_configs(10, seed=3)
    assert len(picks) == len(set(picks)) == 10
    with pytest.raises(ValueError):
        dse.sample_configs(0)
    with pytest.raises(ValueError):
        dse.sample_configs(37)
