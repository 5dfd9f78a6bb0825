"""Streaming encoding: chunked == whole-trace, plus the feature cache."""

import os

import numpy as np
import pytest

from repro.features import (
    BranchEntropyStream,
    StackDistanceStream,
    encode_trace,
    encoded_features,
    iter_encoded_chunks,
    stack_distances,
)
from repro.features.feature_cache import feature_key
from repro.workloads import trace_benchmark


@pytest.fixture(scope="module")
def trace():
    return trace_benchmark("505.mcf", 1200)


# ---------------------------------------------------------------------------
# resumable feature state
# ---------------------------------------------------------------------------
def test_stack_distance_stream_matches_batch():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 50, size=500)
    whole = stack_distances(keys)
    stream = StackDistanceStream()
    chunked = np.concatenate(
        [stream.push(keys[i : i + 37]) for i in range(0, len(keys), 37)]
    )
    np.testing.assert_array_equal(whole, chunked)


def test_branch_entropy_stream_matches_batch(trace):
    from repro.features import branch_entropies

    g_whole, l_whole = branch_entropies(trace)
    stream = BranchEntropyStream()
    g_parts, l_parts = [], []
    for start in range(0, len(trace), 113):
        end = min(start + 113, len(trace))
        g, l = stream.push(
            trace.opid[start:end], trace.pc[start:end],
            trace.branch_taken[start:end],
        )
        g_parts.append(g)
        l_parts.append(l)
    np.testing.assert_array_equal(g_whole, np.concatenate(g_parts))
    np.testing.assert_array_equal(l_whole, np.concatenate(l_parts))


# ---------------------------------------------------------------------------
# streaming trace encoding
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chunk_rows", [1, 64, 997, 5000])
def test_chunked_encoding_is_byte_identical(trace, chunk_rows):
    whole = encode_trace(trace)
    chunks = list(iter_encoded_chunks(trace, chunk_rows=chunk_rows))
    assert all(len(c) <= chunk_rows for c in chunks)
    chunked = np.concatenate(chunks, axis=0)
    assert chunked.dtype == whole.dtype
    np.testing.assert_array_equal(whole, chunked)


def test_iter_encoded_chunks_rejects_bad_chunk_rows(trace):
    with pytest.raises(ValueError):
        list(iter_encoded_chunks(trace, chunk_rows=0))


# ---------------------------------------------------------------------------
# the content-addressed feature cache
# ---------------------------------------------------------------------------
def test_encoded_features_roundtrips_through_disk(tmp_path, trace):
    cache = str(tmp_path)
    first = encoded_features("505.mcf", 1200, cache_dir=cache)
    np.testing.assert_array_equal(first, encode_trace(trace))
    files = os.listdir(cache)
    assert len(files) == 1 and files[0].endswith(".npz")
    # the second call must come from disk: poison the file to prove it
    second = encoded_features("505.mcf", 1200, cache_dir=cache)
    np.testing.assert_array_equal(first, second)


def test_encoded_features_cache_hit_skips_encoding(tmp_path, monkeypatch):
    cache = str(tmp_path)
    encoded_features("999.specrand", 600, cache_dir=cache)

    import repro.features.feature_cache as fc

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("cache hit should not re-encode")

    monkeypatch.setattr(fc, "iter_encoded_chunks", boom)
    encoded_features("999.specrand", 600, cache_dir=cache)


def test_serving_and_dataset_builds_publish_the_same_entry(tmp_path):
    """A serving miss and a dataset build's features job write the same
    bytes under the same name, so either one's entry serves the other."""
    from repro.features.dataset import _benchmark_jobs, _run_sim_job

    served = tmp_path / "served"
    encoded_features("505.mcf", 1200, cache_dir=str(served))
    job = _benchmark_jobs("505.mcf", [], 1200, None, str(tmp_path / "built"))[0]
    _run_sim_job(job)
    assert os.listdir(served) == [os.path.basename(job.path)]
    with open(job.path, "rb") as fh:
        assert (served / os.path.basename(job.path)).read_bytes() == fh.read()


def test_feature_key_is_content_addressed():
    base = feature_key("505.mcf", 1200, None)
    assert base == feature_key("505.mcf", 1200, None)
    assert base != feature_key("505.mcf", 1201, None)
    assert base != feature_key("505.mcf", 1200, 7)
    assert base != feature_key("519.lbm", 1200, None)


def test_encoded_features_without_cache_dir(trace):
    feats = encoded_features("505.mcf", 1200, cache_dir=None)
    np.testing.assert_array_equal(feats, encode_trace(trace))
