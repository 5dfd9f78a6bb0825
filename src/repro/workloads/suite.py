"""The 17-benchmark SPEC CPU2017-like suite (paper Table II).

Each benchmark name maps to a mini-ASM kernel whose dominant behaviour
matches its SPEC counterpart.  The train/test split is the paper's: the
eight smaller-index benchmarks test, the nine larger-index ones train
("the division is decided based on the benchmark indices").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa import Program
from repro.vm import Trace, run_program
from repro.workloads.kernels import (
    compress,
    graph,
    media,
    physics,
    random_gen,
    sort_search,
    stencil,
    strings,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark: a named, parameterized kernel factory."""

    name: str
    category: str  # "INT" or "FP"
    behaviour: str  # one-line behaviour description
    factory: Callable[..., Program]

    def build(self, reps: int = 1, seed: int | None = None, **overrides) -> Program:
        kwargs = dict(overrides)
        kwargs["reps"] = reps
        if seed is not None:
            kwargs["seed"] = seed
        return self.factory(**kwargs)


BENCHMARKS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        WorkloadSpec(
            "500.perlbench", "INT",
            "hash-table churn with linear probing", strings.perlbench,
        ),
        WorkloadSpec(
            "502.gcc", "INT",
            "token dispatch through indirect-branch jump table", strings.gcc,
        ),
        WorkloadSpec(
            "505.mcf", "INT",
            "arc relaxation with scattered dependent loads", graph.mcf,
        ),
        WorkloadSpec(
            "507.cactuBSSN", "FP",
            "long straight-line FP chains per grid point", physics.cactubssn,
        ),
        WorkloadSpec(
            "508.namd", "FP",
            "pairwise forces with cutoff branch, sqrt/div", physics.namd,
        ),
        WorkloadSpec(
            "519.lbm", "FP",
            "D2Q5 lattice streaming, bandwidth-bound", stencil.lbm,
        ),
        WorkloadSpec(
            "521.wrf", "FP",
            "2D 5-point stencil sweeps", stencil.wrf,
        ),
        WorkloadSpec(
            "523.xalancbmk", "INT",
            "DOM-style tree walk with explicit stack", graph.xalancbmk,
        ),
        WorkloadSpec(
            "525.x264", "INT",
            "8x8 SAD motion search", media.x264,
        ),
        WorkloadSpec(
            "527.cam4", "FP",
            "column physics with clamping conditionals", physics.cam4,
        ),
        WorkloadSpec(
            "531.deepsjeng", "INT",
            "game-tree walk with score pruning", sort_search.deepsjeng,
        ),
        WorkloadSpec(
            "538.imagick", "FP",
            "3x3 convolution with clamping", media.imagick,
        ),
        WorkloadSpec(
            "544.nab", "FP",
            "O(n^2) pairwise energy, sqrt+div every pair", physics.nab,
        ),
        WorkloadSpec(
            "548.exchange2", "INT",
            "N-queens backtracking counter", sort_search.exchange2,
        ),
        WorkloadSpec(
            "549.fotonik3d", "FP",
            "3D 7-point stencil sweeps", stencil.fotonik3d,
        ),
        WorkloadSpec(
            "557.xz", "INT",
            "LZ match finding over hash-head table", compress.xz,
        ),
        WorkloadSpec(
            "999.specrand", "INT",
            "LCG generation with parity branch", random_gen.specrand,
        ),
    ]
}

#: Paper Table II — training benchmarks (larger SPEC indices).
TRAIN_BENCHMARKS: tuple[str, ...] = (
    "525.x264",
    "527.cam4",
    "531.deepsjeng",
    "538.imagick",
    "544.nab",
    "548.exchange2",
    "549.fotonik3d",
    "557.xz",
    "999.specrand",
)

#: Paper Table II — testing ("unseen") benchmarks (smaller SPEC indices).
TEST_BENCHMARKS: tuple[str, ...] = (
    "500.perlbench",
    "502.gcc",
    "505.mcf",
    "507.cactuBSSN",
    "508.namd",
    "519.lbm",
    "521.wrf",
    "523.xalancbmk",
)

ALL_BENCHMARKS: tuple[str, ...] = tuple(sorted(BENCHMARKS))

_TRACE_CACHE: dict[tuple[str, int, int | None], Trace] = {}


def build_program(name: str, reps: int = 1, seed: int | None = None, **overrides) -> Program:
    """Build the program for benchmark ``name`` (see :class:`WorkloadSpec`)."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; known: {ALL_BENCHMARKS}")
    return BENCHMARKS[name].build(reps=reps, seed=seed, **overrides)


def trace_benchmark(
    name: str, max_instructions: int, seed: int | None = None, **overrides
) -> Trace:
    """Trace benchmark ``name`` for exactly ``max_instructions`` instructions.

    The kernel is wrapped in enough outer repetitions that the instruction
    cap always truncates the run — the analogue of the paper tracing the
    first 100M instructions of each SPEC benchmark.
    """
    if max_instructions <= 0:
        raise ValueError("max_instructions must be positive")
    program = build_program(name, reps=max_instructions, seed=seed, **overrides)
    return run_program(program, max_instructions=max_instructions, name=name)


def get_trace(
    name: str, max_instructions: int, seed: int | None = None,
    memo: bool = True,
) -> Trace:
    """Memoized :func:`trace_benchmark` (traces are immutable).

    ``memo=False`` reads the memo but does not add a new trace to it.
    """
    key = (name, max_instructions, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = trace_benchmark(name, max_instructions, seed=seed)
        if memo:
            _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop all memoized traces (tests use this to bound memory)."""
    _TRACE_CACHE.clear()
