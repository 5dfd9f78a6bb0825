"""Parallel execution layer for simulation fan-out.

The most expensive fan-out in this reproduction is embarrassingly
parallel: one trace is timed on every sampled microarchitecture (Sec.
IV-B "representation reuse").  This package provides the process pool
that exploits it (pipeline stages fan out through the executor backends
of :mod:`repro.pipeline.executors` instead):

* :mod:`~repro.runtime.pool` — :class:`ParallelMap`, a chunked
  ``ProcessPoolExecutor`` wrapper with a serial fallback, deterministic
  result ordering and worker-side exception capture.
* :mod:`~repro.runtime.progress` — :class:`ProgressReporter`, per-job
  completion lines for long fan-outs.

The ``--jobs N`` CLI flag (default: all cores) threads through here.
"""

from repro.runtime.pool import JobError, ParallelMap, resolve_jobs
from repro.runtime.progress import NULL_PROGRESS, ProgressReporter

__all__ = [
    "JobError",
    "ParallelMap",
    "resolve_jobs",
    "ProgressReporter",
    "NULL_PROGRESS",
]
