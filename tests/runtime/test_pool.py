"""Unit tests for the parallel execution layer."""

import ctypes
import io
import os

import pytest

from repro.ml.allocator import openblas_symbol
from repro.runtime import (
    JobError,
    ParallelMap,
    ProgressReporter,
    resolve_jobs,
)
from repro.runtime.pool import _chunked


# Job functions must be importable top-level callables (pickled to workers).
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


def _worker_pid(_x):
    return os.getpid()


def _blas_threads(_x=None):
    """The loaded OpenBLAS's thread count (None without one)."""
    getter = openblas_symbol((
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads64_",
    ))
    if getter is None:
        return None
    getter.argtypes, getter.restype = (), ctypes.c_int
    return getter()


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(None) == (os.cpu_count() or 1)
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_map_preserves_input_order(jobs):
    items = list(range(23))
    assert ParallelMap(jobs=jobs).map(_square, items) == [x * x for x in items]


def test_parallel_runs_in_worker_processes():
    pids = set(ParallelMap(jobs=2, chunksize=1).map(_worker_pid, range(8)))
    assert os.getpid() not in pids or len(pids) > 1


def test_serial_stays_in_process():
    assert ParallelMap(jobs=1).map(_worker_pid, [0]) == [os.getpid()]


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_raises_job_error(jobs):
    with pytest.raises(JobError) as excinfo:
        ParallelMap(jobs=jobs).map(_fail_on_three, [1, 2, 3, 4])
    assert excinfo.value.index == 2
    assert excinfo.value.item == 3
    assert "boom on 3" in excinfo.value.worker_traceback


def test_chunking_covers_all_items_contiguously():
    pairs = list(enumerate(range(10)))
    chunks = _chunked(pairs, jobs=3, chunksize=None)
    flat = [pair for chunk in chunks for pair in chunk]
    assert flat == pairs
    explicit = _chunked(pairs, jobs=3, chunksize=4)
    assert [len(c) for c in explicit] == [4, 4, 2]


def test_empty_and_single_item():
    assert ParallelMap(jobs=4).map(_square, []) == []
    assert ParallelMap(jobs=4).map(_square, [5]) == [25]


def test_labels_length_validated():
    with pytest.raises(ValueError):
        ParallelMap(jobs=1).map(_square, [1, 2], labels=["only-one"])


def test_progress_reporter_lines():
    stream = io.StringIO()
    progress = ProgressReporter(total=3, stream=stream)
    pool = ParallelMap(jobs=1, progress=progress)
    assert pool.map(_square, [1, 2, 3], labels=["a", "b", "c"]) == [1, 4, 9]
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("[1/3] a")
    assert lines[2].startswith("[3/3] c")
    assert progress.done == 3


def test_progress_reports_failures():
    stream = io.StringIO()
    progress = ProgressReporter(total=2, stream=stream)
    pool = ParallelMap(jobs=1, progress=progress)
    with pytest.raises(JobError):
        pool.map(_fail_on_three, [3, 1])
    lines = stream.getvalue().splitlines()
    assert "FAILED" in lines[0]
    assert "FAILED" not in lines[1]  # later jobs still run and report


def test_parallel_workers_run_one_blas_thread():
    default = _blas_threads()
    if default is None:
        pytest.skip("no OpenBLAS loaded")
    assert ParallelMap(jobs=2).map(_blas_threads, range(4)) == [1] * 4
    assert _blas_threads() == default  # the parent keeps the library default
