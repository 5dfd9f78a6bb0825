"""The preset spec registry: one spec per experiment module."""

import importlib
import pkgutil
from collections import Counter

import pytest

import repro.experiments
from repro.core.errors import UnknownExperimentError
from repro.pipeline import available_specs, get_spec


def test_every_experiment_has_a_spec():
    specs = available_specs()
    modules = [
        importlib.import_module(f"repro.experiments.{info.name}")
        for info in pkgutil.iter_modules(repro.experiments.__path__)
    ]
    declared = [m.SPEC for m in modules if hasattr(m, "SPEC")]
    assert len(declared) == len(specs) == 12
    assert all(specs[spec.name] is spec for spec in declared)


def test_union_plan_trains_each_shared_foundation_once(tmp_path):
    """The presets declare each shared model with the same train stage,
    so the union plan of every preset holds one task per distinct model:
    the train-split and updated-train foundations, plus cross_isa's
    Ithemal and SimNet baselines."""
    from repro.pipeline.artifacts import StageArtifactStore
    from repro.pipeline.executors import build_plan

    plan = build_plan(list(available_specs().values()), scale="smoke",
                      store=StageArtifactStore(root=str(tmp_path)))
    kinds = Counter(task.stage.kind for task in plan.tasks)
    assert kinds["train"] == 4


def test_specs_end_in_report_and_are_named_consistently():
    for name, spec in available_specs().items():
        assert spec.name == name
        assert spec.stages[-1].kind == "report"
        kinds = {s.kind for s in spec.stages}
        assert "analysis" in kinds  # every preset carries its figure logic


def test_get_spec_unknown_suggests():
    with pytest.raises(UnknownExperimentError, match="did you mean"):
        get_spec("fig3_seen_unsen")


def test_preset_analyses_are_registered():
    from repro.pipeline import ANALYSES

    for name, spec in available_specs().items():
        for st in spec.stages:
            if st.kind == "analysis":
                assert st.params["fn"] in ANALYSES
