"""ModelStore: content addressing, provenance checks, integrity."""

import json
import logging
import os
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import Session
from repro.cache import publish, read_npz_arrays
from repro.models import FingerprintMismatch, ModelStore, StoreError, create
from repro.models.store import MANIFEST_JSON, WEIGHTS_NPZ
from repro.serving import PredictionCluster, make_server

@pytest.fixture()
def store(tmp_path):
    return ModelStore(root=str(tmp_path / "store"))


@pytest.fixture(scope="module")
def fitted(tiny_dataset, tiny_configs):
    model = create("actboost", n_estimators=5)
    return model.fit(tiny_dataset, configs=tiny_configs)


def test_put_is_idempotent_and_content_addressed(store, fitted, tiny_dataset):
    fp = tiny_dataset.fingerprint()
    a = store.put(fitted, dataset_fingerprint=fp, train_config={"x": 1})
    b = store.put(fitted, dataset_fingerprint=fp, train_config={"x": 1})
    assert a == b
    assert a.startswith("actboost-")
    # different provenance -> different artifact
    c = store.put(fitted, dataset_fingerprint=fp, train_config={"x": 2})
    assert c != a
    assert len(store.list()) == 2


def test_load_rejects_fingerprint_mismatch(store, fitted, tiny_dataset):
    artifact = store.put(
        fitted, dataset_fingerprint=tiny_dataset.fingerprint()
    )
    with pytest.raises(FingerprintMismatch):
        store.load(artifact, expect_fingerprint="0000000000000000")
    # without an expectation the artifact loads fine
    assert store.load(artifact).is_fitted


def test_load_detects_corrupt_weights(store, fitted, tiny_dataset):
    artifact = store.put(
        fitted, dataset_fingerprint=tiny_dataset.fingerprint()
    )
    weights_path = os.path.join(store.path(artifact), WEIGHTS_NPZ)
    arrays, _ = read_npz_arrays(weights_path)
    key = sorted(arrays)[0]
    arrays[key] = arrays[key] + 1.0
    publish(weights_path, lambda fh: np.savez_compressed(fh, **arrays))
    with pytest.raises(StoreError, match="corrupt"):
        store.load(artifact)


def _write(path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


#: ways a weights file goes bad after its artifact was stored
WEIGHT_FAULTS = {
    "torn": lambda path: _write(path, b"torn"),
    "zero-byte": lambda path: _write(path, b""),
    "missing": os.remove,
}


@pytest.mark.parametrize("fault", sorted(WEIGHT_FAULTS))
def test_unreadable_weights_raise_store_error(
    store, fitted, tiny_dataset, fault
):
    artifact = store.put(
        fitted, dataset_fingerprint=tiny_dataset.fingerprint()
    )
    WEIGHT_FAULTS[fault](os.path.join(store.path(artifact), WEIGHTS_NPZ))
    with pytest.raises(StoreError, match=artifact):
        store.load(artifact)


def test_torn_weights_answer_404_naming_the_artifact(
    tmp_path, fitted, tiny_dataset
):
    session = Session(scale="smoke", cache_dir=str(tmp_path))
    artifact = session.store.put(
        fitted, dataset_fingerprint=tiny_dataset.fingerprint()
    )
    _write(os.path.join(session.store.path(artifact), WEIGHTS_NPZ), b"torn")
    cluster = PredictionCluster(workers=0, session=session)
    server = make_server(cluster, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.server_address[1]}/v1/predict",
        data=json.dumps({
            "benchmark": fitted.metadata["benchmark"],
            "family": "actboost", "artifact": artifact,
        }).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        error = json.loads(excinfo.value.read())["error"]
    finally:
        server.shutdown()
        server.server_close()
        cluster.stop()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert excinfo.value.code == 404
    assert error == f"artifact {artifact!r} weights are corrupt"


def test_missing_artifact_raises(store):
    with pytest.raises(StoreError, match="no artifact"):
        store.load("actboost-doesnotexist00")
    with pytest.raises(StoreError):
        store.delete("actboost-doesnotexist00")
    assert not store.exists("actboost-doesnotexist00")


def test_find_filters(store, fitted, tiny_dataset):
    fp = tiny_dataset.fingerprint()
    artifact = store.put(
        fitted, dataset_fingerprint=fp, train_config={"scale": "smoke"},
        tag="release",
    )
    assert store.find(family="actboost") == artifact
    assert store.find(family="perfvec") is None
    assert store.find(dataset_fingerprint=fp) == artifact
    assert store.find(dataset_fingerprint="ffff") is None
    assert store.find(train_config={"scale": "smoke"}) == artifact
    assert store.find(train_config={"scale": "bench"}) is None
    assert store.find(spec=fitted.spec) == artifact
    assert store.find(tag="release") == artifact
    assert store.find(tag="nightly") is None


def test_delete_removes_artifact(store, fitted, tiny_dataset):
    artifact = store.put(
        fitted, dataset_fingerprint=tiny_dataset.fingerprint()
    )
    assert store.exists(artifact)
    store.delete(artifact)
    assert not store.exists(artifact)
    assert store.list() == []


def test_manifest_records_provenance(store, fitted, tiny_dataset):
    fp = tiny_dataset.fingerprint()
    artifact = store.put(
        fitted, dataset_fingerprint=fp, train_config={"scale": "smoke"},
        tag="t",
    )
    manifest = store.manifest(artifact)
    assert manifest["id"] == artifact
    assert manifest["family"] == "actboost"
    assert manifest["dataset_fingerprint"] == fp
    assert manifest["train_config"] == {"scale": "smoke"}
    assert manifest["tag"] == "t"
    assert manifest["spec"] == fitted.spec


def test_empty_store_lists_nothing(store):
    assert store.list() == []
    assert store.find(family="perfvec") is None


def test_dataset_fingerprint_sensitivity(tiny_dataset):
    fp = tiny_dataset.fingerprint()
    assert fp == tiny_dataset.fingerprint()  # deterministic
    shifted = tiny_dataset.select_configs([0, 1])
    assert shifted.fingerprint() != fp


def test_reput_without_tag_preserves_existing_tag(store, fitted, tiny_dataset):
    fp = tiny_dataset.fingerprint()
    artifact = store.put(fitted, dataset_fingerprint=fp, tag="release")
    assert store.put(fitted, dataset_fingerprint=fp) == artifact
    assert store.manifest(artifact)["tag"] == "release"
    # an explicit new tag still wins
    store.put(fitted, dataset_fingerprint=fp, tag="nightly")
    assert store.manifest(artifact)["tag"] == "nightly"


def test_a_torn_manifest_hides_no_other_artifact(
    tmp_path, fitted, tiny_dataset, caplog
):
    session = Session(scale="smoke", cache_dir=str(tmp_path))
    artifact = session.store.put(
        fitted, dataset_fingerprint=tiny_dataset.fingerprint(),
        train_config={"scale": "smoke"},
    )
    torn = os.path.join(
        session.store.path("actboost-0123456789abcdef"), MANIFEST_JSON
    )
    os.makedirs(os.path.dirname(torn))
    with open(torn, "w") as fh:
        fh.write('{"format": 1, "id": "actboost-01')  # killed mid-copy
    with caplog.at_level(logging.WARNING):
        assert [m["id"] for m in session.store.list()] == [artifact]
    assert any(torn in record.getMessage() for record in caplog.records)
    assert session.resolve_artifact(family="actboost") == artifact
