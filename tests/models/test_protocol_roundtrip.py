"""Every registered family: protocol conformance + byte-identical reload."""

import numpy as np
import pytest

from repro.models import (
    ModelStore,
    NotFittedError,
    available,
    create,
)

#: family -> constructor kwargs sized for test speed
FAMILY_SPECS = {
    "perfvec": dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1),
    "ithemal": dict(epochs=1),
    "simnet": dict(epochs=1),
    "program_specific": dict(epochs=20),
    "cross_program": dict(),
    "actboost": dict(n_estimators=5),
}
FAMILIES = sorted(FAMILY_SPECS)


def _fitted(family, tiny_dataset, tiny_configs):
    model = create(family, **FAMILY_SPECS[family])
    return model.fit(tiny_dataset, configs=tiny_configs)


def test_every_family_registered():
    assert set(available()) == set(FAMILY_SPECS)


@pytest.mark.parametrize("family", FAMILIES)
def test_unfitted_model_refuses(family, tiny_dataset, tmp_path):
    model = create(family, **FAMILY_SPECS[family])
    assert not model.is_fitted
    assert model.config_names == ()
    with pytest.raises(NotFittedError):
        model.state_arrays()
    with pytest.raises(NotFittedError):
        ModelStore(root=str(tmp_path)).put(model)


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_predict_evaluate_shapes(family, tiny_dataset, tiny_configs):
    model = _fitted(family, tiny_dataset, tiny_configs)
    assert model.is_fitted
    assert model.family == family
    assert len(model.config_names) >= 1
    preds = model.predict(tiny_dataset)
    assert preds  # at least one benchmark
    for times in preds.values():
        assert times.shape == (len(model.config_names),)
        assert np.isfinite(times).all()
    errors = model.evaluate(tiny_dataset)
    assert set(errors) == set(preds)
    for summary in errors.values():
        assert summary.mean >= 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_spec_and_metadata_json_serializable(family, tiny_dataset, tiny_configs):
    import json

    model = _fitted(family, tiny_dataset, tiny_configs)
    rebuilt = create(family, **json.loads(json.dumps(model.spec)))
    assert rebuilt.spec == model.spec
    json.dumps(model.metadata)  # must not raise


@pytest.mark.parametrize("family", FAMILIES)
def test_store_round_trip_byte_identical(
    family, tiny_dataset, tiny_configs, tmp_path
):
    store = ModelStore(root=str(tmp_path))
    model = _fitted(family, tiny_dataset, tiny_configs)
    before = model.predict(tiny_dataset)
    artifact = store.put(
        model, dataset_fingerprint=tiny_dataset.fingerprint(),
        train_config={"scale": "test"},
    )
    loaded = store.load(artifact, expect_fingerprint=tiny_dataset.fingerprint())
    assert loaded.family == family
    assert loaded.config_names == model.config_names
    after = loaded.predict(tiny_dataset)
    assert set(after) == set(before)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_param_families_require_configs(tiny_dataset):
    for family in ("simnet", "program_specific", "cross_program", "actboost"):
        model = create(family, **FAMILY_SPECS[family])
        with pytest.raises(ValueError, match="configs"):
            model.fit(tiny_dataset)


def test_configs_must_match_dataset_columns(tiny_dataset, tiny_configs):
    model = create("actboost", **FAMILY_SPECS["actboost"])
    with pytest.raises(ValueError, match="match"):
        model.fit(tiny_dataset, configs=list(reversed(tiny_configs)))
