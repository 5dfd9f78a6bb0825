"""The file contract every on-disk store shares (:mod:`repro.cache`).

Each writer publishes whole files: a write that fails part-way leaves
the previous file as it was and no tmp file behind, and a tmp file a
killed writer leaves is reaped once it is stale, never while fresh.
"""

import builtins
import errno
import io
import os
import time

import numpy as np
import pytest

from repro.features.dataset import (
    _benchmark_jobs,
    _cache_path,
    _config_digest,
    _run_sim_job,
    build_dataset,
)
from repro.uarch.presets import cortex_a7_like, skylake_like

BENCH = "999.specrand"
N = 200
CONFIGS = [cortex_a7_like(), skylake_like()]


def _write(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


# -- one case per writer: (target path, a call that rewrites it) -------------
def _dataset_merged(root):
    for job in _benchmark_jobs(BENCH, CONFIGS, N, None, root):
        _run_sim_job(job)  # the build resumes from these shards
    target = _cache_path(root, BENCH, N, None, _config_digest(CONFIGS))
    _write(target, b"previous")  # unreadable: the build rewrites it
    return target, lambda: build_dataset([BENCH], CONFIGS, N, cache_dir=root)


def _dataset_job(column):
    def case(root):  # column 0 publishes a feature entry, the rest shards
        job = _benchmark_jobs(BENCH, CONFIGS, N, None, root)[column]
        _write(job.path, b"previous")
        return job.path, lambda: _run_sim_job(job)

    return case


def _feature_entry(root):
    from repro.features import feature_cache

    target = feature_cache.feature_path(root, BENCH, N, None)
    _write(target, b"previous")
    return target, lambda: feature_cache.encoded_features(
        BENCH, N, cache_dir=root, memo=False
    )


def _model_file(name):
    def case(root):
        from repro.models import ModelStore, create

        dataset = build_dataset([BENCH], CONFIGS, N, cache_dir=None)
        model = create("actboost", n_estimators=2).fit(dataset, configs=CONFIGS)
        store = ModelStore(root)
        target = os.path.join(store.path(store.put(model)), name)
        _write(target, b"previous")
        return target, lambda: store.put(model)

    return case


def _stage_record(root):
    from repro.pipeline.artifacts import StageArtifactStore

    store = StageArtifactStore(root)
    _write(store.path("k1"), b"previous")
    return store.path("k1"), lambda: store.put(
        "k1", "s", "analysis", "spec", {"v": 1}
    )


def _queue_task(root):
    from repro.pipeline.queue import WorkQueue

    queue = WorkQueue(root)  # a task is published once, never replaced
    return queue.task_path("t1"), lambda: queue.enqueue({"key": "t1"})


def _imported(name):
    def case(root):
        from repro.frontends import get_frontend
        from repro.frontends.trace_import import export_trace, import_trace

        source = os.path.join(root, "source.jsonl")
        export_trace(get_frontend("mini-asm").trace(BENCH, 50), source)
        target = os.path.join(root, "imported", "t", name)
        _write(target, b"previous")  # a torn manifest: the import reruns
        return target, lambda: import_trace(source, name="t", cache_dir=root)

    return case


def _results_json(root):
    from repro.pipeline.report import ExperimentResult

    result = ExperimentResult("fig3", "t", "smoke", ["a"], [[1]])
    target = os.path.join(root, "fig3_smoke.json")
    _write(target, b"previous")
    return target, lambda: result.save(root)


WRITERS = {
    "dataset_merged": _dataset_merged,
    "dataset_shard": _dataset_job(1),
    "dataset_feature_entry": _dataset_job(0),
    "feature_entry": _feature_entry,
    "model_weights": _model_file("weights.npz"),
    "model_manifest": _model_file("manifest.json"),
    "stage_record": _stage_record,
    "queue_task": _queue_task,
    "imported_trace": _imported("trace.npz"),
    "imported_manifest": _imported("manifest.json"),
    "results_json": _results_json,
}


class _DiskFull:
    """A file whose first write stores half its bytes and then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: max(1, len(data) // 2)])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fill_disk_for(monkeypatch, target: str) -> None:
    """Make every file opened for writing at ``target`` or at a sibling
    named after it a :class:`_DiskFull`."""
    real_open = io.open

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        writing = set(mode) & set("wax")
        if writing and isinstance(file, str) and file.startswith(target):
            return _DiskFull(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)  # what zipfile (np.savez) calls


def _tmp_files(root) -> list[str]:
    return [
        name for _, _, names in os.walk(root) for name in names
        if ".tmp" in name
    ]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    target, rewrite = WRITERS[writer](str(tmp_path))
    before = _read(target)
    with monkeypatch.context() as patch:
        _fill_disk_for(patch, target)
        with pytest.raises(OSError):
            rewrite()
    assert _read(target) == before
    assert _tmp_files(tmp_path) == []


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_reap_tmp_keeps_a_fresh_tmp_and_removes_a_stale_one(
    tmp_path, monkeypatch, writer
):
    from repro.cache import STALE_TMP_SECONDS, reap_tmp

    target, rewrite = WRITERS[writer](str(tmp_path))
    with monkeypatch.context() as patch:
        # the writer is killed between its write and its rename
        patch.setattr(os, "replace", lambda src, dst: None)
        rewrite()
    directory = os.path.dirname(target)
    left = [name for name in os.listdir(directory) if name.endswith(".tmp")]
    assert any(name.startswith(os.path.basename(target) + ".") for name in left)
    assert reap_tmp(directory) == 0  # fresh: it may be a live writer's
    past = time.time() - STALE_TMP_SECONDS - 60
    for name in left:
        os.utime(os.path.join(directory, name), (past, past))
    assert reap_tmp(directory) == len(left)
    assert _tmp_files(directory) == []


def test_build_dataset_reaps_stale_tmp_files(tmp_path):
    from repro.cache import STALE_TMP_SECONDS

    shards, features = tmp_path / "shards", tmp_path / "features"
    shards.mkdir()
    features.mkdir()
    stale = [tmp_path / "a.npz.1.0badc0de.tmp", shards / "b.npz.1.0badc0de.tmp",
             features / "e.npz.1.0badc0de.tmp"]
    fresh = [tmp_path / "c.npz.2.0badc0de.tmp", shards / "d.npz.2.0badc0de.tmp",
             features / "f.npz.2.0badc0de.tmp"]
    for path in stale + fresh:
        path.write_bytes(b"torn")
    past = time.time() - STALE_TMP_SECONDS - 60
    for path in stale:
        os.utime(path, (past, past))
    build_dataset([BENCH], CONFIGS, N, cache_dir=str(tmp_path))
    assert not any(path.exists() for path in stale)
    assert all(path.exists() for path in fresh)


def test_read_outcomes(tmp_path, caplog):
    from repro.cache import publish, read_json, read_npz, read_npz_arrays

    path = str(tmp_path / "x.json")
    assert read_json(path) == (None, "miss")
    publish(path, lambda fh: fh.write(b'{"a": 1}'))
    assert read_json(path) == ({"a": 1}, "hit")
    for torn in (b'{"a": ', b"[1, 2]", b""):
        _write(path, torn)
        assert read_json(path) == (None, "corrupt")
    npz = str(tmp_path / "x.npz")
    assert read_npz(npz, "a") == (None, "miss")
    publish(npz, lambda fh: np.savez(fh, a=np.arange(3)))
    (a,), outcome = read_npz(npz, "a")
    assert outcome == "hit" and a.tolist() == [0, 1, 2]
    assert read_npz(npz, "b") == (None, "corrupt")  # a missing key
    _write(npz, b"")
    assert read_npz(npz, "a") == (None, "corrupt")
    logged = [record.getMessage() for record in caplog.records]
    assert sum(path in message for message in logged) == 3
    assert sum(npz in message for message in logged) == 2
    every = str(tmp_path / "every.npz")
    assert read_npz_arrays(every) == (None, "miss")
    publish(every, lambda fh: np.savez(fh, a=np.arange(3), b=np.ones(2, "f4")))
    arrays, outcome = read_npz_arrays(every)
    assert outcome == "hit" and sorted(arrays) == ["a", "b"]
    assert arrays["b"].dtype == np.float32 and arrays["a"].tolist() == [0, 1, 2]
    for torn in (b"torn", b""):
        _write(every, torn)
        assert read_npz_arrays(every) == (None, "corrupt")
