"""Cache-keying and parallel/serial equivalence tests for build_dataset.

The acceptance contract for the runtime layer: the on-disk cache key must
change whenever the microarchitecture list, trace seed or instruction
budget changes, and a parallel build must produce byte-for-byte the same
cache files and the same ``TraceDataset`` arrays as a serial one.
"""

import hashlib
import logging
import os

import numpy as np
import pytest

from repro.features.dataset import build_dataset
from repro.uarch.presets import cortex_a7_like, skylake_like

BENCHMARKS = ["999.specrand", "505.mcf"]


def _configs():
    return [cortex_a7_like(), skylake_like()]


def _cache_files(path) -> list:
    return sorted(f for f in os.listdir(path) if f.endswith(".npz"))


def _digest_dir(path) -> dict:
    out = {}
    for name in _cache_files(path):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _digest_cache(path) -> dict:
    """Digests of the merged entries and of the feature entries."""
    streams = _digest_dir(os.path.join(path, "features"))
    return {**_digest_dir(path),
            **{f"features/{name}": d for name, d in streams.items()}}


def test_cache_key_changes_with_uarch_config(tmp_path):
    build_dataset(["505.mcf"], _configs(), 400, cache_dir=str(tmp_path))
    build_dataset(["505.mcf"], [skylake_like()], 400, cache_dir=str(tmp_path))
    assert len(_cache_files(tmp_path)) == 2


def test_cache_key_changes_with_seed(tmp_path):
    build_dataset(["505.mcf"], _configs(), 400, cache_dir=str(tmp_path))
    build_dataset(["505.mcf"], _configs(), 400, seed=1, cache_dir=str(tmp_path))
    assert len(_cache_files(tmp_path)) == 2


def test_cache_key_changes_with_instruction_budget(tmp_path):
    build_dataset(["505.mcf"], _configs(), 400, cache_dir=str(tmp_path))
    build_dataset(["505.mcf"], _configs(), 500, cache_dir=str(tmp_path))
    assert len(_cache_files(tmp_path)) == 2


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_and_serial_builds_identical(tmp_path, jobs):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = build_dataset(
        BENCHMARKS, _configs(), 600, cache_dir=str(serial_dir), jobs=1
    )
    parallel = build_dataset(
        BENCHMARKS, _configs(), 600, cache_dir=str(parallel_dir), jobs=jobs
    )
    # identical TraceDataset contents...
    np.testing.assert_array_equal(serial.features, parallel.features)
    np.testing.assert_array_equal(serial.targets, parallel.targets)
    assert serial.segments == parallel.segments
    assert serial.config_names == parallel.config_names
    # ...and byte-identical cache entries under identical names: one
    # merged entry and one feature entry per benchmark
    digests = _digest_cache(serial_dir)
    assert len(digests) == 2 * len(BENCHMARKS)
    assert digests == _digest_cache(parallel_dir)


def test_parallel_build_reads_serial_cache(tmp_path):
    serial = build_dataset(
        BENCHMARKS, _configs(), 500, cache_dir=str(tmp_path), jobs=1
    )
    before = _digest_cache(tmp_path)
    parallel = build_dataset(
        BENCHMARKS, _configs(), 500, cache_dir=str(tmp_path), jobs=2
    )
    np.testing.assert_array_equal(serial.targets, parallel.targets)
    assert _digest_cache(tmp_path) == before  # pure cache hit, nothing rewritten


def test_shards_resume_interrupted_build(tmp_path):
    from repro.features.dataset import _benchmark_jobs, _run_sim_job

    # simulate an interrupted run: the features job and one simulation
    # job completed; the features job leaves a feature entry, not a shard
    jobs = _benchmark_jobs("505.mcf", _configs(), 400, None, str(tmp_path))
    for job in jobs[:2]:
        _run_sim_job(job)
    assert len(os.listdir(tmp_path / "shards")) == 1
    assert os.listdir(tmp_path / "features") == [
        os.path.basename(jobs[0].path)
    ]
    ds = build_dataset(["505.mcf"], _configs(), 400, cache_dir=str(tmp_path))
    # shards were folded into the merged entry and removed; the feature
    # entry stays
    assert not (tmp_path / "shards").exists()
    assert os.listdir(tmp_path / "features") == [
        os.path.basename(jobs[0].path)
    ]
    reference = build_dataset(["505.mcf"], _configs(), 400, cache_dir=None)
    np.testing.assert_array_equal(ds.features, reference.features)
    np.testing.assert_array_equal(ds.targets, reference.targets)


def test_another_config_list_reuses_the_feature_entries(tmp_path, monkeypatch):
    """A build over a second config list writes one merged entry per
    benchmark and no feature entry, and encodes nothing: every stream is
    the one the first build published."""
    import repro.features.dataset as dataset_mod

    first = build_dataset(BENCHMARKS, _configs(), 500, cache_dir=str(tmp_path))
    merged = set(_cache_files(tmp_path))
    streams = _digest_dir(tmp_path / "features")

    def refuse(trace):
        raise AssertionError("encode_trace called")

    monkeypatch.setattr(dataset_mod, "encode_trace", refuse)
    second = build_dataset(
        BENCHMARKS, [skylake_like()], 500, cache_dir=str(tmp_path)
    )
    assert len(set(_cache_files(tmp_path)) - merged) == len(BENCHMARKS)
    assert _digest_dir(tmp_path / "features") == streams
    np.testing.assert_array_equal(second.features, first.features)
    np.testing.assert_array_equal(second.targets, first.targets[:, 1:])


def test_a_root_in_the_old_layout_builds_the_identical_dataset(
    tmp_path, monkeypatch
):
    """A root written before feature entries existed, where each merged
    entry holds ``features`` plus ``targets`` and serving kept its own
    ``<root>/features/``: its merged entries are read for their targets
    and left as they are, each stream is encoded once into its feature
    entry, and ``<root>/features/`` is never touched."""
    import repro.features.dataset as dataset_mod
    from repro.features.dataset import _cache_path, _config_digest

    cache = str(tmp_path / "datasets")
    reference = build_dataset(BENCHMARKS, _configs(), 500, cache_dir=cache)
    streams = _digest_dir(os.path.join(cache, "features"))
    # rewrite the root in the old layout
    old_serving = str(tmp_path / "features")
    os.replace(os.path.join(cache, "features"), old_serving)
    digest = _config_digest(_configs())
    for name in BENCHMARKS:
        features, targets = reference.segment(name)
        np.savez_compressed(
            _cache_path(cache, name, 500, None, digest),
            features=features, targets=targets,
        )
    old = _digest_dir(cache), _digest_dir(old_serving)
    encoded = []
    encode = dataset_mod.encode_trace
    monkeypatch.setattr(
        dataset_mod, "encode_trace",
        lambda trace: encoded.append(trace) or encode(trace),
    )
    for _ in range(2):
        ds = build_dataset(BENCHMARKS, _configs(), 500, cache_dir=cache)
        assert ds.fingerprint() == reference.fingerprint()
    assert len(encoded) == len(BENCHMARKS)  # once each, by the first build
    assert (_digest_dir(cache), _digest_dir(old_serving)) == old
    assert _digest_dir(os.path.join(cache, "features")) == streams


def test_corrupt_entries_are_recomputed(tmp_path, caplog):
    """Garbage in a merged entry or a shard is logged and recomputed, not
    raised out of the build, and the rewrite repairs the entry."""
    from repro.features.dataset import (
        _benchmark_jobs, _cache_path, _config_digest,
    )

    cache = str(tmp_path)
    digest = _config_digest(_configs())
    build_dataset(BENCHMARKS, _configs(), 400, cache_dir=cache)
    merged = _cache_path(cache, "505.mcf", 400, None, digest)
    # the other benchmark's build was interrupted after writing a shard
    os.remove(_cache_path(cache, "999.specrand", 400, None, digest))
    shard = _benchmark_jobs("999.specrand", _configs(), 400, None, cache)[1]
    os.makedirs(os.path.dirname(shard.path))
    for path in (merged, shard.path):
        with open(path, "wb") as fh:
            fh.write(b"not an npz file")

    with caplog.at_level(logging.WARNING, logger="repro.features.dataset"):
        ds = build_dataset(BENCHMARKS, _configs(), 400, cache_dir=cache)
    reference = build_dataset(BENCHMARKS, _configs(), 400, cache_dir=None)
    np.testing.assert_array_equal(ds.features, reference.features)
    np.testing.assert_array_equal(ds.targets, reference.targets)
    logged = " ".join(record.getMessage() for record in caplog.records)
    assert merged in logged and shard.path in logged
    assert not (tmp_path / "shards").exists()
    with np.load(merged) as data:
        np.testing.assert_array_equal(
            data["targets"], reference.segment("505.mcf")[1]
        )


def test_zero_byte_entries_are_recomputed(tmp_path, caplog):
    """An empty merged entry or shard (np.load raises EOFError) is logged
    and recomputed, and the rewrite repairs the entry."""
    from repro.features.dataset import (
        _benchmark_jobs, _cache_path, _config_digest,
    )

    cache = str(tmp_path)
    digest = _config_digest(_configs())
    build_dataset(BENCHMARKS, _configs(), 400, cache_dir=cache)
    merged = _cache_path(cache, "505.mcf", 400, None, digest)
    os.remove(_cache_path(cache, "999.specrand", 400, None, digest))
    shard = _benchmark_jobs("999.specrand", _configs(), 400, None, cache)[1]
    os.makedirs(os.path.dirname(shard.path))
    for path in (merged, shard.path):
        open(path, "wb").close()

    with caplog.at_level(logging.WARNING, logger="repro.features.dataset"):
        ds = build_dataset(BENCHMARKS, _configs(), 400, cache_dir=cache)
    reference = build_dataset(BENCHMARKS, _configs(), 400, cache_dir=None)
    np.testing.assert_array_equal(ds.features, reference.features)
    np.testing.assert_array_equal(ds.targets, reference.targets)
    logged = " ".join(record.getMessage() for record in caplog.records)
    assert merged in logged and shard.path in logged
    assert os.path.getsize(merged) > 0
    with np.load(merged) as data:
        np.testing.assert_array_equal(
            data["targets"], reference.segment("505.mcf")[1]
        )


def test_no_cache_dir_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build_dataset(["999.specrand"], _configs(), 300, cache_dir=None, jobs=2)
    assert not os.path.exists(".repro_cache")


def test_build_benchmark_arrays_parallel(tmp_path):
    serial = build_dataset(["505.mcf"], _configs(), 400, cache_dir=None, jobs=1)
    parallel = build_dataset(
        ["505.mcf"], _configs(), 400, cache_dir=None, jobs=2
    )
    np.testing.assert_array_equal(serial.features, parallel.features)
    np.testing.assert_array_equal(serial.targets, parallel.targets)


def test_repro_cache_dir_env_sets_default(tmp_path, monkeypatch):
    """With REPRO_CACHE_DIR set, the default cache_dir lands there."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "redirected"))
    build_dataset(["999.specrand"], _configs(), 300)
    entries = os.listdir(tmp_path / "redirected" / "datasets")
    assert any(entry.endswith(".npz") for entry in entries)


def test_explicit_cache_dir_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    explicit = tmp_path / "explicit"
    build_dataset(["999.specrand"], _configs(), 300, cache_dir=str(explicit))
    assert explicit.is_dir()
    assert not (tmp_path / "env").exists()


def test_fingerprint_deterministic_and_content_sensitive(tmp_path):
    a = build_dataset(["999.specrand"], _configs(), 300, cache_dir=None)
    b = build_dataset(["999.specrand"], _configs(), 300, cache_dir=None)
    c = build_dataset(["999.specrand"], _configs(), 400, cache_dir=None)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
