"""Chunked process-pool map with a serial fallback.

:class:`ParallelMap` is the execution primitive of dataset construction
(:mod:`repro.features.dataset`): one trace timed on many
microarchitectures.  Design constraints:

* **Determinism** — results come back in input order regardless of worker
  scheduling, so parallel and serial runs are interchangeable.
* **Serial fallback** — ``jobs=1`` runs in-process with no executor, no
  pickling and no subprocesses; the test suite and single-core boxes pay
  zero overhead.
* **Worker-side exception capture** — a failing job comes back as a
  :class:`JobResult` carrying the formatted worker traceback instead of
  poisoning the pool, and the first failure (in input order) raises a
  :class:`JobError` once every job has finished.
* **Chunking** — work items are submitted in contiguous chunks so that
  per-task IPC overhead amortizes and workers keep benchmark locality
  (consecutive jobs usually share a trace).

Job functions must be picklable top-level callables and must not depend on
mutable global state: they may run in a fresh process.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

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
        pairs = list(enumerate(items))
        if labels is not None and len(labels) != len(pairs):
            raise ValueError("labels must match items length")

        if self.jobs == 1 or len(pairs) <= 1:
            results = self._map_serial(fn, pairs, labels)
        else:
            results = self._map_parallel(fn, pairs, labels)

        for res in results:
            if not res.ok:
                raise JobError(res.index, pairs[res.index][1], res.error)
        return [res.value for res in results]

    def _map_serial(
        self,
        fn: Callable[[Any], Any],
        pairs: list[tuple[int, Any]],
        labels: Sequence[str] | None,
    ) -> list[JobResult]:
        results = []
        for index, item in pairs:
            (result,) = _run_chunk(fn, [(index, item)])
            results.append(result)
            self._report(result, pairs, labels)
        return results

    def _map_parallel(
        self,
        fn: Callable[[Any], Any],
        pairs: list[tuple[int, Any]],
        labels: Sequence[str] | None,
    ) -> list[JobResult]:
        results: list[JobResult | None] = [None] * len(pairs)
        chunks = _chunked(pairs, self.jobs, self.chunksize)
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            pending = {pool.submit(_run_chunk, fn, chunk) for chunk in chunks}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for result in future.result():
                        results[result.index] = result
                        self._report(result, pairs, labels)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

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
