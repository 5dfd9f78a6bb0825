"""Dataset assembly: features plus per-microarchitecture latency targets.

For each benchmark the trace is generated once, features are extracted once,
and the trace is timed on every sampled microarchitecture — the data-level
analogue of the paper's "instruction representation reuse" (Sec. IV-B): the
logical trace does not change with the microarchitecture, so one trace
serves all k target columns.

Simulation dominates every experiment's runtime and the (benchmark x
config) grid is embarrassingly parallel, so construction fans out through
:meth:`repro.runtime.ParallelMap.imap`: each feature-encoding or
single-config simulation is a pure top-level job function, and results
come back in input order.  Parallel and serial builds are interchangeable:
the arrays and the cache files they produce are byte-identical either way.

Each dataset is held once.  The final ``features``/``targets`` arrays are
allocated up front (rows reserved at the trace-length cap) and every
benchmark's rows are written straight into them, in benchmark order: a
cache hit loads into its slice, and a miss takes its job outputs from the
in-order iterator as they land, so a build's peak is the final arrays
plus one benchmark in flight.

Caching is two-level, both under ``cache_dir``:

* **merged** (``<bench>_n<N>_s<seed>_<digest>.npz``) — features + the full
  target matrix for one benchmark against one config list, keyed by a
  content hash of every microarchitecture description.  This is the
  long-lived cache consulted first.
* **shards** (``shards/<bench>_n<N>_s<seed>_<cfg-digest>.npz``) — one
  array per job, written by the worker that computed it.  Shards let an
  interrupted parallel build resume without re-simulating finished
  columns; they are folded into the merged entry and deleted as soon as
  every column of a benchmark lands.  Being transient, shards are written
  uncompressed; the long-lived merged entry is compressed.

Both kinds are published and read through :mod:`repro.cache`.  An
unreadable entry of either kind (bit rot, a truncated copy) is recomputed,
and the rewrite repairs it; a build reaps the tmp files a killed earlier
build left in both directories before it starts.

Each simulation job times the trace its frontend memoized, so a serial
build runs a benchmark's k simulations back to back on one trace object,
and :mod:`repro.sim.cpu` decodes that trace once for all k.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cache import dataset_cache_dir, publish, read_npz, reap_tmp
from repro.features.encoder import NUM_FEATURES, encode_trace
from repro.frontends import DEFAULT_FRONTEND, get_frontend
from repro.runtime import ParallelMap, ProgressReporter
from repro.sim import CPUSimulator
from repro.uarch.config import MicroarchConfig

#: Default ``cache_dir`` sentinel: resolve ``REPRO_CACHE_DIR`` (or
#: ``.repro_cache/``) at call time via :mod:`repro.cache`.
DEFAULT_CACHE_DIR = "auto"


def _resolve_cache_dir(cache_dir: str | None) -> str | None:
    return dataset_cache_dir() if cache_dir == DEFAULT_CACHE_DIR else cache_dir


@dataclass(frozen=True)
class TraceDataset:
    """Features and per-config incremental-latency targets for a benchmark set."""

    features: np.ndarray  # float32 [N, 51]
    targets: np.ndarray  # float32 [N, k] incremental latencies (0.1 ns)
    segments: tuple[tuple[str, int, int], ...]  # (benchmark, start, end)
    config_names: tuple[str, ...]
    #: Which frontend generated the traces (``repro.frontends`` name).
    isa: str = DEFAULT_FRONTEND

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("features/targets row mismatch")
        if self.features.shape[1] != NUM_FEATURES:
            raise ValueError(f"expected {NUM_FEATURES} features")
        if self.targets.shape[1] != len(self.config_names):
            raise ValueError("target columns must match config names")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_configs(self) -> int:
        return self.targets.shape[1]

    @property
    def benchmark_names(self) -> list[str]:
        return [name for name, _, _ in self.segments]

    def segment(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(features, targets) views of one benchmark's rows."""
        for seg_name, start, end in self.segments:
            if seg_name == name:
                return self.features[start:end], self.targets[start:end]
        from repro.core.errors import UnknownBenchmarkError

        raise UnknownBenchmarkError(name, self.benchmark_names)

    def select_configs(self, indices) -> "TraceDataset":
        """Dataset restricted to a subset of microarchitecture columns."""
        indices = list(indices)
        return TraceDataset(
            features=self.features,
            targets=np.ascontiguousarray(self.targets[:, indices]),
            segments=self.segments,
            config_names=tuple(self.config_names[i] for i in indices),
            isa=self.isa,
        )

    def total_times(self) -> dict[str, np.ndarray]:
        """Per-benchmark true total execution time (0.1 ns ticks) per config."""
        return {
            name: self.targets[start:end].astype(np.float64).sum(axis=0)
            for name, start, end in self.segments
        }

    def fingerprint(self) -> str:
        """Content hash over every array and label (model-artifact keying).

        Two datasets with the same fingerprint are byte-identical, so a
        model trained on one is exactly reusable on the other — this is
        what :class:`repro.models.store.ModelStore` records and checks.
        """
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features))
        h.update(np.ascontiguousarray(self.targets))
        h.update(repr(self.segments).encode())
        h.update(repr(self.config_names).encode())
        if self.isa != DEFAULT_FRONTEND:
            # conditional so every pre-frontend fingerprint stays stable
            h.update(self.isa.encode())
        return h.hexdigest()[:16]


def _config_digest(configs: list[MicroarchConfig]) -> str:
    text = "\n".join(repr(c) for c in configs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _safe_name(name: str, isa: str) -> str:
    """Cache-file stem; non-default frontends get a distinguishing prefix
    (conditional so every pre-frontend cache file keeps its path)."""
    safe = name.replace(".", "_")
    if isa != DEFAULT_FRONTEND:
        safe = f"{isa.replace('-', '_')}__{safe}"
    return safe


def _cache_path(
    cache_dir: str, name: str, n: int, seed: int | None, digest: str,
    isa: str = DEFAULT_FRONTEND,
) -> str:
    return os.path.join(
        cache_dir, f"{_safe_name(name, isa)}_n{n}_s{seed}_{digest}.npz"
    )


def _shard_path(
    cache_dir: str, name: str, n: int, seed: int | None, config_digest: str,
    isa: str = DEFAULT_FRONTEND,
) -> str:
    return os.path.join(
        cache_dir, "shards",
        f"{_safe_name(name, isa)}_n{n}_s{seed}_{config_digest}.npz",
    )


@dataclass(frozen=True)
class _SimJob:
    """One pool work item: encode features or simulate one config.

    ``config is None`` means "encode the trace's features"; otherwise the
    job times the trace on that single microarchitecture.  Jobs are pure
    (trace regenerated from the benchmark name) and picklable, so they can
    run in any worker process.
    """

    benchmark: str
    config: MicroarchConfig | None
    max_instructions: int
    seed: int | None
    shard_path: str | None
    isa: str = DEFAULT_FRONTEND

    @property
    def label(self) -> str:
        what = "features" if self.config is None else f"@ {self.config.name}"
        return f"sim {self.benchmark} {what}"


def _run_sim_job(job: _SimJob) -> np.ndarray:
    """Execute one job (worker side), persisting its shard when enabled.

    Frontend ``trace`` calls memoize per process, so consecutive jobs for
    one benchmark in the same worker share the trace.
    """
    trace = get_frontend(job.isa).trace(
        job.benchmark, job.max_instructions, seed=job.seed
    )
    if job.config is None:
        data = encode_trace(trace)
    else:
        data = CPUSimulator(job.config).run(trace).incremental_latencies
    if job.shard_path:
        publish(job.shard_path, lambda fh: np.savez(fh, data=data))
    return data


def _benchmark_jobs(
    name: str,
    configs: list[MicroarchConfig],
    max_instructions: int,
    seed: int | None,
    cache_dir: str | None,
    isa: str = DEFAULT_FRONTEND,
) -> list[_SimJob]:
    """The features job plus one simulation job per config, in column order."""
    jobs = []
    for config in [None, *configs]:
        shard = None
        if cache_dir:
            tag = (
                "features"
                if config is None
                else hashlib.sha256(repr(config).encode()).hexdigest()[:16]
            )
            shard = _shard_path(cache_dir, name, max_instructions, seed, tag, isa)
        jobs.append(
            _SimJob(
                benchmark=name,
                config=config,
                max_instructions=max_instructions,
                seed=seed,
                shard_path=shard,
                isa=isa,
            )
        )
    return jobs


def _job_outputs(
    bench_jobs: list[_SimJob], pooled: set[_SimJob], results: Iterator
) -> Iterator[np.ndarray]:
    """One benchmark's job outputs in column order.

    A job in ``pooled`` comes from ``results`` (the pool's in-order
    iterator); any other resumes from its shard — or, when that shard is
    absent or unreadable, runs here.
    """
    for job in bench_jobs:
        if job in pooled:
            yield next(results)
            continue
        # absent (never written, or a concurrent builder removed it) or
        # unreadable: run it here
        loaded = read_npz(job.shard_path, "data")[0] if job.shard_path else None
        yield loaded[0] if loaded is not None else _run_sim_job(job)


def _load_rows(
    path: str, features: np.ndarray, targets: np.ndarray
) -> int | None:
    """Load a merged entry into the head rows of ``features``/``targets``;
    returns its row count, or None when the entry is absent or unreadable."""
    loaded, _ = read_npz(path, "features", "targets")
    if loaded is None:
        return None
    rows = len(loaded[0])
    features[:rows], targets[:rows] = loaded
    return rows


def _write_rows(
    outputs: Iterator[np.ndarray], features: np.ndarray, targets: np.ndarray
) -> int:
    """Write one benchmark's job outputs into the head rows of
    ``features``/``targets`` (column by column); returns its row count."""
    block = next(outputs)
    rows = len(block)
    features[:rows] = block
    for column, block in enumerate(outputs):
        targets[:rows, column] = block
    return rows


def build_dataset(
    benchmarks: list[str],
    configs: list[MicroarchConfig],
    max_instructions: int,
    seed: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    jobs: int | None = 1,
    progress: ProgressReporter | None = None,
    isa: str = DEFAULT_FRONTEND,
) -> TraceDataset:
    """Assemble the full dataset over ``benchmarks`` x ``configs``.

    ``jobs`` fans the per-(benchmark, config) simulations out across
    processes (``None``/``0`` = all cores, ``1`` = serial in-process);
    the resulting dataset and cache files are identical for any value.
    ``isa`` selects the trace frontend (:mod:`repro.frontends`) and is
    recorded on the dataset, in its fingerprint and in every cache key.
    """
    if not benchmarks:
        raise ValueError("no benchmarks given")
    if not configs:
        raise ValueError("no configs given")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ValueError("config names must be unique")
    cache_dir = _resolve_cache_dir(cache_dir)
    if cache_dir:
        reap_tmp(cache_dir)
        reap_tmp(os.path.join(cache_dir, "shards"))
    digest = _config_digest(configs)
    entries = {
        name: cache_dir and _cache_path(
            cache_dir, name, max_instructions, seed, digest, isa
        )
        for name in dict.fromkeys(benchmarks)
    }
    # Benchmarks without a merged entry run as jobs, except the ones an
    # interrupted earlier build left a shard for.
    pending = {
        name: _benchmark_jobs(
            name, configs, max_instructions, seed, cache_dir, isa
        )
        for name, path in entries.items()
        if not (path and os.path.exists(path))
    }
    todo = [
        job for bench_jobs in pending.values() for job in bench_jobs
        if not (job.shard_path and os.path.exists(job.shard_path))
    ]
    if progress is not None:
        progress.total = len(todo)  # cache/shard hits are not jobs
    results = ParallelMap(jobs=jobs, progress=progress).imap(
        _run_sim_job, todo, labels=[job.label for job in todo]
    )
    pooled = set(todo)

    # Rows are reserved at the trace-length cap; pages a shorter trace
    # leaves unwritten are never touched.
    features = np.empty(
        (len(benchmarks) * max_instructions, NUM_FEATURES), dtype=np.float32
    )
    targets = np.empty((len(features), len(configs)), dtype=np.float32)
    spans: dict[str, tuple[int, int]] = {}
    segments = []
    cursor = 0
    computed = False
    for name in benchmarks:
        if name in spans:  # a repeated name repeats its rows
            start, end = spans[name]
            rows = end - start
            features[cursor:cursor + rows] = features[start:end]
            targets[cursor:cursor + rows] = targets[start:end]
        else:
            path = entries[name]
            rows = None if name in pending else _load_rows(
                path, features[cursor:], targets[cursor:]
            )
            if rows is None:
                # a merged entry that vanished or is unreadable is
                # recomputed here, resuming from any shards it left
                bench_jobs = pending.get(name) or _benchmark_jobs(
                    name, configs, max_instructions, seed, cache_dir, isa
                )
                rows = _write_rows(
                    _job_outputs(bench_jobs, pooled, results),
                    features[cursor:], targets[cursor:],
                )
                computed = True
                if cache_dir:
                    publish(path, lambda fh: np.savez_compressed(
                        fh, features=features[cursor:cursor + rows],
                        targets=targets[cursor:cursor + rows],
                    ))
                    # Shards only go once the merged entry is published, so
                    # a crash in between never loses resume state.
                    for job in bench_jobs:
                        try:
                            os.remove(job.shard_path)
                        except OSError:
                            pass
            spans[name] = (cursor, cursor + rows)
        segments.append((name, cursor, cursor + rows))
        cursor += rows
    if cache_dir and computed:
        try:  # drop the shard dir once every shard has been folded in
            os.rmdir(os.path.join(cache_dir, "shards"))
        except OSError:
            pass
    if cursor < len(features):  # some trace ended before the cap
        features, targets = features[:cursor].copy(), targets[:cursor].copy()
    return TraceDataset(
        features=features,
        targets=targets,
        segments=tuple(segments),
        config_names=tuple(names),
        isa=isa,
    )
