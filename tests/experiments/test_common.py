"""Experiment infrastructure tests."""

import numpy as np
import pytest

from repro.experiments.common import (
    SCALES,
    ExperimentResult,
    benchmark_dataset,
    get_scale,
    render_surface,
    render_table,
    seen_configs,
    unseen_configs,
)


def test_scales_defined():
    assert set(SCALES) == {"smoke", "bench", "paper"}
    assert SCALES["paper"].num_configs == 77  # the paper's count
    assert SCALES["smoke"].instructions < SCALES["bench"].instructions


def test_get_scale():
    assert get_scale("smoke").name == "smoke"
    assert get_scale(SCALES["bench"]).name == "bench"
    with pytest.raises(KeyError):
        get_scale("galactic")


def test_seen_configs_cached_and_sized():
    cfg = get_scale("smoke")
    a = seen_configs(cfg)
    b = seen_configs(cfg)
    assert a is b
    assert len(a) == cfg.num_configs


def test_unseen_configs_disjoint_names():
    cfg = get_scale("smoke")
    seen_names = {c.name for c in seen_configs(cfg)}
    unseen = unseen_configs(cfg, 5)
    assert len(unseen) == 5
    assert not seen_names & {c.name for c in unseen}


def test_render_table_alignment():
    text = render_table(["name", "v"], [["a", 1.23456], ["long-name", 2]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.235" in text
    assert all(len(line) == len(lines[0]) for line in lines[:2])


def test_render_surface_marks_minimum():
    surface = np.array([[2.0, 1.0], [3.0, 4.0]])
    text = render_surface(surface, ["r0", "r1"], ["c0", "c1"], "t")
    assert "*" in text
    marked_line = [line for line in text.splitlines() if "*" in line][0]
    assert "r0" in marked_line  # minimum is in row 0


def test_experiment_result_render_and_save(tmp_path):
    result = ExperimentResult(
        experiment="demo", title="Demo", scale="smoke",
        headers=["a"], rows=[[1]], metrics={"m": 0.5}, notes=["n"],
    )
    text = result.render()
    assert "Demo" in text and "m = 0.5" in text and "note: n" in text
    path = result.save(results_dir=str(tmp_path))
    import json

    with open(path) as fh:
        payload = json.load(fh)
    assert payload["metrics"]["m"] == 0.5


def test_benchmark_dataset_cached_in_memory():
    cfg = get_scale("smoke")
    a = benchmark_dataset(cfg, ("999.specrand",))
    b = benchmark_dataset(cfg, ("999.specrand",))
    assert a is b
