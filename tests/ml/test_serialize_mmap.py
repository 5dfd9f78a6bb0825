"""mmap weight loading: bitwise parity with the eager path.

Serving workers share one physical copy of each artifact's weights via
``load_arrays(mmap=True)`` (a sidecar extraction of the compressed npz,
mapped read-only).  That is only safe if the mapped arrays are *exactly*
the saved ones — any drift would silently change predictions across the
whole cluster.  These tests pin the contract at three levels: raw
arrays, ``Module`` state aliasing, and end-to-end predictions for every
model family in the registry (both through ``ModelStore.load`` and
through a live 2-worker ``PredictionCluster``).
"""

import os

import numpy as np
import pytest

from repro.api import Session
from repro.ml.layers import Linear
from repro.ml.serialize import (
    MMAP_SUFFIX,
    _extract_sidecar,
    _source_identity,
    load_arrays,
    save_arrays,
)
from repro.models.base import WEIGHTS_NPZ
from repro.serving import PredictionCluster, ServeRequest

# -- raw array contract ---------------------------------------------------


@pytest.fixture
def saved(tmp_path):
    rng = np.random.default_rng(7)
    arrays = {
        "w": rng.standard_normal((17, 5)).astype(np.float32),
        "b": rng.standard_normal(5).astype(np.float64),
        "idx": np.arange(12, dtype=np.int64).reshape(3, 4),
    }
    path = save_arrays(str(tmp_path / "weights"), arrays)
    return path, arrays


def test_mmap_load_is_bitwise_identical(saved):
    path, arrays = saved
    eager = load_arrays(path)
    mapped = load_arrays(path, mmap=True)
    assert set(mapped) == set(arrays)
    for name, want in arrays.items():
        assert eager[name].dtype == want.dtype
        assert mapped[name].dtype == want.dtype
        # bitwise, not approx: serving promises byte-identical answers
        assert np.array_equal(eager[name], want)
        assert np.array_equal(mapped[name], want)


def test_mmap_views_are_readonly_plain_ndarrays(saved):
    path, _ = saved
    for arr in load_arrays(path, mmap=True).values():
        # plain ndarray view (np.memmap would propagate through every
        # downstream computation), read-only (the mapping is shared)
        assert type(arr) is np.ndarray
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_sidecar_is_published_once_and_reused(saved):
    path, _ = saved
    sidecar = f"{path}{MMAP_SUFFIX}"
    assert not os.path.exists(sidecar)
    load_arrays(path, mmap=True)
    assert os.path.isdir(sidecar)
    stamp = {
        name: os.stat(os.path.join(sidecar, name)).st_mtime_ns
        for name in os.listdir(sidecar)
    }
    load_arrays(path, mmap=True)  # second load adopts, does not rewrite
    after = {
        name: os.stat(os.path.join(sidecar, name)).st_mtime_ns
        for name in os.listdir(sidecar)
    }
    assert after == stamp


def test_late_extraction_keeps_the_published_sidecar(saved):
    # two workers miss the sidecar and both extract: the one finishing
    # second adopts the first one's copy instead of deleting the files
    # the first is already mapping
    path, arrays = saved
    sidecar = f"{path}{MMAP_SUFFIX}"
    mapped = load_arrays(path, mmap=True)
    marker = os.path.join(sidecar, "published-first")
    open(marker, "w").close()
    index = _extract_sidecar(path, sidecar, _source_identity(path))
    assert os.path.exists(marker)
    assert set(index["arrays"]) == set(arrays)
    for name, want in arrays.items():
        assert np.array_equal(mapped[name], want)


def test_stale_sidecar_invalidated_when_source_rewritten(saved):
    path, arrays = saved
    assert np.array_equal(load_arrays(path, mmap=True)["w"], arrays["w"])
    fresh = {name: arr + 1 for name, arr in arrays.items()}
    save_arrays(path, fresh)
    remapped = load_arrays(path, mmap=True)
    for name, want in fresh.items():
        assert np.array_equal(remapped[name], want)


def test_load_state_dict_aliases_readonly_state(saved):
    # read-only (mmap'd) incoming arrays are aliased, not copied — this
    # is what lets N workers share one physical copy of the weights
    layer = Linear(17, 5, rng=np.random.default_rng(3))
    rng = np.random.default_rng(11)
    state = {
        name: rng.standard_normal(p.data.shape).astype(p.data.dtype)
        for name, p in layer.named_parameters()
    }
    path = save_arrays(str(os.path.dirname(saved[0]) + "/linear"), state)
    mapped = load_arrays(path, mmap=True)
    layer.load_state_dict(mapped)
    for name, p in layer.named_parameters():
        assert p.data is mapped[name]
        assert not p.data.flags.writeable
        assert np.array_equal(p.data, state[name])
    # writable state is still copied defensively
    layer.load_state_dict(state)
    for name, p in layer.named_parameters():
        assert p.data is not state[name]
        assert p.data.flags.writeable


# -- every family in the registry ----------------------------------------

FAMILY_SPECS = {
    "perfvec": dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1),
    "ithemal": dict(epochs=1),
    "simnet": dict(epochs=1),
    "program_specific": dict(epochs=40),
    "cross_program": dict(n_signature=2),
    "actboost": dict(n_estimators=3),
}
BENCHMARKS = ("999.specrand", "505.mcf")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    session = Session(
        scale="smoke", cache_dir=str(tmp_path_factory.mktemp("mmap"))
    )
    artifacts = {
        family: session.train(
            family=family, benchmarks=BENCHMARKS, evaluate=False, **spec
        ).artifact_id
        for family, spec in FAMILY_SPECS.items()
    }
    return session, artifacts


def serve_args(session, family, artifact):
    """(benchmark, signature_times) this family can serve from."""
    model = session.store.load(artifact)
    if family in ("program_specific", "actboost"):
        return model.metadata["benchmark"], None
    benchmark = "505.mcf"
    if family == "cross_program":
        times = session.dataset(BENCHMARKS).total_times()[benchmark]
        signature = tuple(
            float(times[i]) for i in model.metadata["signature_indices"]
        )
        return benchmark, signature
    return benchmark, None


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_mmap_weights_match_eager_for_family(trained, family):
    session, artifacts = trained
    path = os.path.join(session.store.path(artifacts[family]), WEIGHTS_NPZ)
    eager = load_arrays(path)
    mapped = load_arrays(path, mmap=True)
    assert set(eager) == set(mapped)
    for name in eager:
        assert eager[name].dtype == mapped[name].dtype
        assert np.array_equal(eager[name], mapped[name])  # 0 ULP apart


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_mmap_model_predicts_identically(trained, family):
    session, artifacts = trained
    artifact = artifacts[family]
    benchmark, signature = serve_args(session, family, artifact)
    want = session.predict(
        benchmark, family=family, artifact=artifact,
        signature_times=None if signature is None else list(signature),
    )
    model = session.store.load(artifact, mmap=True)
    request = session.serve_request(
        model, benchmark, signature_times=signature
    )
    (times,) = model.predict_batch([request])
    got = dict(zip(model.config_names, times.tolist()))
    assert got == want  # exact, not approx


@pytest.fixture(scope="module")
def cluster(trained):
    session, _ = trained
    with PredictionCluster(
        workers=2, scale="smoke", cache_dir=session.cache_dir
    ) as cluster:
        yield cluster


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_cluster_matches_session_exactly(trained, cluster, family):
    session, artifacts = trained
    artifact = artifacts[family]
    benchmark, signature = serve_args(session, family, artifact)
    want = session.predict(
        benchmark, family=family, artifact=artifact,
        signature_times=None if signature is None else list(signature),
    )
    result = cluster.predict(
        ServeRequest(
            benchmark=benchmark, family=family, artifact=artifact,
            signature_times=signature,
        ),
        timeout=120,
    )
    assert result.benchmark == benchmark
    assert result.artifact == artifact
    assert result.times == want  # byte-identical through the cluster
