"""Dataset assembly: features plus per-microarchitecture latency targets.

For each benchmark the trace is generated once, features are extracted once,
and the trace is timed on every sampled microarchitecture — the data-level
analogue of the paper's "instruction representation reuse" (Sec. IV-B): the
logical trace does not change with the microarchitecture, so one trace
serves all k target columns.

Simulation dominates every experiment's runtime and the (benchmark x
config) grid is embarrassingly parallel, so construction fans out through
:class:`repro.runtime.ParallelMap`: each feature-encoding or single-config
simulation is a pure top-level job function.  Parallel and serial builds
are interchangeable — results are assembled in deterministic order, so the
arrays and the cache files they produce are byte-identical either way.

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

An unreadable entry of either kind (a torn write, bit rot) is logged and
recomputed, and the rewrite repairs it.

Each simulation job times the trace its frontend memoized, so a serial
build runs a benchmark's k simulations back to back on one trace object,
and :mod:`repro.sim.cpu` decodes that trace once for all k.
"""

from __future__ import annotations

import hashlib
import logging
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.cache import dataset_cache_dir
from repro.features.encoder import NUM_FEATURES, encode_trace
from repro.frontends import DEFAULT_FRONTEND, get_frontend
from repro.runtime import ParallelMap, ProgressReporter
from repro.sim import CPUSimulator
from repro.uarch.config import MicroarchConfig

#: Default ``cache_dir`` sentinel: resolve ``REPRO_CACHE_DIR`` (or
#: ``.repro_cache/``) at call time via :mod:`repro.cache`.
DEFAULT_CACHE_DIR = "auto"

log = logging.getLogger(__name__)


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
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.targets).tobytes())
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


def _atomic_savez(path: str, compress: bool, **arrays: np.ndarray) -> None:
    """Write an npz atomically so concurrent builders never see partial files."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    (np.savez_compressed if compress else np.savez)(tmp, **arrays)
    os.replace(tmp, path)


def _load_npz(path: str, *keys: str) -> tuple[np.ndarray, ...] | None:
    """The ``keys`` arrays of the npz at ``path``; None when it is absent
    or unreadable, so the caller recomputes (and rewrites) it."""
    try:
        with np.load(path) as data:
            return tuple(data[key] for key in keys)
    except FileNotFoundError:
        return None  # never written, or a concurrent builder removed it
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile) as exc:  # EOFError: an empty file
        log.warning("corrupt dataset cache entry %s (%s): recomputing", path, exc)
        return None


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
        _atomic_savez(job.shard_path, compress=False, data=data)
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


def _assemble_benchmark(
    outputs: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge one benchmark's job outputs into (features, targets)."""
    features = outputs[0]
    targets = np.empty((len(features), len(outputs) - 1), dtype=np.float32)
    for j, column in enumerate(outputs[1:]):
        targets[:, j] = column
    return features, targets


def _build_many(
    benchmarks: list[str],
    configs: list[MicroarchConfig],
    max_instructions: int,
    seed: int | None,
    cache_dir: str | None,
    jobs: int | None,
    progress: ProgressReporter | None,
    isa: str,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(features, targets) per benchmark, fanning cache misses out as jobs."""
    digest = _config_digest(configs)
    arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    pending: dict[str, list[_SimJob]] = {}
    for name in dict.fromkeys(benchmarks):
        if cache_dir:
            path = _cache_path(
                cache_dir, name, max_instructions, seed, digest, isa
            )
            loaded = _load_npz(path, "features", "targets")
            if loaded is not None:
                arrays[name] = loaded
                continue
        pending[name] = _benchmark_jobs(
            name, configs, max_instructions, seed, cache_dir, isa
        )

    if pending:
        flat = [job for jobs_ in pending.values() for job in jobs_]
        # Shards from an interrupted earlier build short-circuit their jobs.
        done: dict[_SimJob, np.ndarray] = {}
        todo = []
        for job in flat:
            if job.shard_path:
                loaded = _load_npz(job.shard_path, "data")
                if loaded is not None:
                    done[job] = loaded[0]
                    continue
            todo.append(job)
        if progress is not None:
            progress.total = len(todo)  # cache/shard hits are not jobs
        pool = ParallelMap(jobs=jobs, progress=progress)
        for job, output in zip(
            todo, pool.map(_run_sim_job, todo, labels=[j.label for j in todo])
        ):
            done[job] = output
        for name, bench_jobs in pending.items():
            features, targets = _assemble_benchmark(
                [done[j] for j in bench_jobs]
            )
            if cache_dir:
                path = _cache_path(
                    cache_dir, name, max_instructions, seed, digest, isa
                )
                _atomic_savez(
                    path, compress=True, features=features, targets=targets
                )
                # Shards only go once the merged entry is durable, so a
                # crash in between never loses resume state.
                for job in bench_jobs:
                    try:
                        os.remove(job.shard_path)
                    except OSError:
                        pass
            arrays[name] = (features, targets)
        if cache_dir:
            try:  # drop the shard dir once every shard has been folded in
                os.rmdir(os.path.join(cache_dir, "shards"))
            except OSError:
                pass
    return arrays


def build_benchmark_arrays(
    name: str,
    configs: list[MicroarchConfig],
    max_instructions: int,
    seed: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    jobs: int | None = 1,
    progress: ProgressReporter | None = None,
    isa: str = DEFAULT_FRONTEND,
) -> tuple[np.ndarray, np.ndarray]:
    """(features, targets) for one benchmark, via the on-disk cache."""
    return _build_many(
        [name], configs, max_instructions, seed, _resolve_cache_dir(cache_dir),
        jobs, progress, isa,
    )[name]


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
    arrays = _build_many(
        list(benchmarks), configs, max_instructions, seed,
        _resolve_cache_dir(cache_dir), jobs, progress, isa,
    )
    feature_blocks = []
    target_blocks = []
    segments = []
    cursor = 0
    for name in benchmarks:
        features, targets = arrays[name]
        feature_blocks.append(features)
        target_blocks.append(targets)
        segments.append((name, cursor, cursor + len(features)))
        cursor += len(features)
    return TraceDataset(
        features=np.concatenate(feature_blocks, axis=0),
        targets=np.concatenate(target_blocks, axis=0),
        segments=tuple(segments),
        config_names=tuple(names),
        isa=isa,
    )
