"""Chunked process-pool map with a serial fallback.

:class:`ParallelMap` is the execution primitive of dataset construction
(:mod:`repro.features.dataset`): one trace timed on many
microarchitectures.  Design constraints:

* **Determinism** — results come back in input order regardless of worker
  scheduling, so parallel and serial runs are interchangeable.
  :meth:`ParallelMap.imap` yields each result as soon as it and every
  earlier one are done (:meth:`~ParallelMap.map` collects them), so a
  consumer can use and drop results while later jobs still run.
* **Serial fallback** — ``jobs=1`` runs in-process with no executor, no
  pickling and no subprocesses; the test suite and single-core boxes pay
  zero overhead.
* **Worker-side exception capture** — a failing job comes back as a
  :class:`JobResult` carrying the formatted worker traceback instead of
  poisoning the pool, and the first failure (in input order) raises a
  :class:`JobError` once every job has finished; ``imap`` has yielded
  every result before it by then.
* **Chunking** — work items are submitted in contiguous chunks so that
  per-task IPC overhead amortizes and workers keep benchmark locality
  (consecutive jobs usually share a trace).
* **One BLAS thread per worker** — :func:`process_pool`, which the
  pipeline's local stage pool shares, pins each of two or more workers
  to one BLAS thread, so concurrent workers do not oversubscribe CPUs.

Job functions must be picklable top-level callables and must not depend on
mutable global state: they may run in a fresh process.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.runtime.progress import NULL_PROGRESS, ProgressReporter


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")
    return jobs


@dataclass(frozen=True)
class JobResult:
    """Outcome of one work item: exactly one of value/error is meaningful."""

    index: int
    value: Any = None
    error: str | None = None  # formatted worker traceback

    @property
    def ok(self) -> bool:
        return self.error is None


class JobError(RuntimeError):
    """A job raised in a worker; carries the worker-side traceback."""

    def __init__(self, index: int, item: Any, worker_traceback: str):
        self.index = index
        self.item = item
        self.worker_traceback = worker_traceback
        super().__init__(
            f"job {index} ({item!r}) failed in worker:\n{worker_traceback}"
        )


def _one_blas_thread() -> None:
    """Pool worker initializer: one BLAS thread per concurrent worker."""
    from repro.ml.allocator import set_blas_threads

    set_blas_threads(1)


def process_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` at the default start method.

    With two or more workers each one runs BLAS on one thread
    (:func:`repro.ml.allocator.set_blas_threads`); a lone worker keeps
    the library default, as ``jobs=1`` processes do.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_one_blas_thread if workers > 1 else None,
    )


def _run_chunk(
    fn: Callable[[Any], Any], chunk: Sequence[tuple[int, Any]]
) -> list[JobResult]:
    """Execute one chunk of (index, item) pairs, capturing per-job errors."""
    results = []
    for index, item in chunk:
        try:
            results.append(JobResult(index=index, value=fn(item)))
        except Exception:
            results.append(JobResult(index=index, error=traceback.format_exc()))
    return results


def _chunked(
    pairs: list[tuple[int, Any]], jobs: int, chunksize: int | None
) -> list[list[tuple[int, Any]]]:
    if chunksize is None:
        # ~4 chunks per worker bounds idle tail time without flooding the
        # task queue; chunks stay contiguous to preserve benchmark locality.
        chunksize = max(1, len(pairs) // (jobs * 4) or 1)
    return [pairs[i : i + chunksize] for i in range(0, len(pairs), chunksize)]


class ParallelMap:
    """Map a picklable function over items, serially or across processes.

    Parameters
    ----------
    jobs:
        Worker count; ``None``/``0`` resolves to ``os.cpu_count()``, ``1``
        runs serially in-process.
    chunksize:
        Items per submitted task (parallel mode only).  Default: enough
        for ~4 chunks per worker.
    progress:
        A :class:`~repro.runtime.progress.ProgressReporter`; defaults to
        the silent reporter.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        chunksize: int | None = None,
        progress: ProgressReporter | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.chunksize = chunksize
        self.progress = progress or NULL_PROGRESS

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every item; results ordered like ``items``.

        The first failed job — first by *input order*, not completion
        order — raises :class:`JobError` after all work finishes.
        """
        return list(self.imap(fn, items, labels))

    def imap(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        labels: Sequence[str] | None = None,
    ) -> Iterator[Any]:
        """Like :meth:`map`, but yield each result as soon as it and every
        result before it are done, so the caller can consume (and drop)
        results while later jobs still run.

        Nothing runs until the first result is requested.  Results after
        the first failed job are not yielded: the remaining jobs run to
        completion (a job's side effects, such as a resumable shard, still
        land) and then :class:`JobError` is raised.
        """
        pairs = list(enumerate(items))
        if labels is not None and len(labels) != len(pairs):
            raise ValueError("labels must match items length")
        if self.jobs == 1 or len(pairs) <= 1:
            results = self._results_serial(fn, pairs, labels)
        else:
            results = self._results_parallel(fn, pairs, labels)
        failed = None
        for res in results:
            if failed is None and not res.ok:
                failed = res
            elif failed is None:
                yield res.value
        if failed is not None:
            raise JobError(failed.index, pairs[failed.index][1], failed.error)

    def _results_serial(
        self,
        fn: Callable[[Any], Any],
        pairs: list[tuple[int, Any]],
        labels: Sequence[str] | None,
    ) -> Iterator[JobResult]:
        for index, item in pairs:
            (result,) = _run_chunk(fn, [(index, item)])
            self._report(result, pairs, labels)
            yield result

    def _results_parallel(
        self,
        fn: Callable[[Any], Any],
        pairs: list[tuple[int, Any]],
        labels: Sequence[str] | None,
    ) -> Iterator[JobResult]:
        """Results in input order; ones that finish early wait in a buffer
        until every earlier one has been handed out."""
        ready: dict[int, JobResult] = {}
        next_index = 0
        chunks = _chunked(pairs, self.jobs, self.chunksize)
        with process_pool(self.jobs) as pool:
            pending = {pool.submit(_run_chunk, fn, chunk) for chunk in chunks}
            try:
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        for result in future.result():
                            ready[result.index] = result
                            self._report(result, pairs, labels)
                    while next_index in ready:
                        yield ready.pop(next_index)
                        next_index += 1
            finally:  # an abandoned iterator stops the queued chunks
                for future in pending:
                    future.cancel()
        assert next_index == len(pairs)

    def _report(
        self,
        result: JobResult,
        pairs: list[tuple[int, Any]],
        labels: Sequence[str] | None,
    ) -> None:
        if labels is not None:
            label = labels[result.index]
        else:
            label = repr(pairs[result.index][1])
        self.progress.task_done(label, ok=result.ok)
