"""RV workload suite: the kernel builders ported to the RV frontend.

A compact port of the :mod:`repro.workloads` idea: each benchmark is a
builder emitting RV assembly parameterised by ``reps`` (outer-loop
count) and ``seed`` (perturbs static data and constants), so the
``max_instructions`` cap truncates a long-running loop exactly like the
mini-ASM ``trace_benchmark`` wrapper.  Six kernels across three
categories:

=============  =========  ==============================================
name           category   behaviour
=============  =========  ==============================================
``rv.axpy``    stream     y[i] += a*x[i], unit-stride loads/stores
``rv.stride``  stream     masked strided gather-sum over a table
``rv.hashmix`` compute    xorshift*-style integer mixing, mul-heavy
``rv.crc``     compute    bitwise CRC over data words, shift/branch mix
``rv.gcd``     branchy    Euclid via ``call``/``ret``, rem-heavy
``rv.bsearch`` branchy    binary search with LCG-generated keys
=============  =========  ==============================================

``TRAIN_BENCHMARKS`` / ``TEST_BENCHMARKS`` give the frontend's split for
the ``train``/``test`` aliases; the cross-ISA experiment reports error
deltas per category.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.frontends.rv.assembler import DATA_BASE, RvProgram, assemble
from repro.frontends.rv.machine import run_program
from repro.vm.trace import Trace

_TABLE = 64  # power of two; every kernel's working set


@dataclass(frozen=True)
class RvWorkloadSpec:
    """One RV benchmark: source builder + metadata."""

    name: str
    category: str  # stream / compute / branchy
    description: str
    source: Callable[[int, int], str]  # (reps, seed) -> assembly text

    def build(self, reps: int, seed: int = 0) -> RvProgram:
        return assemble(self.source(max(reps, 1), seed))


def _words(values: list[int]) -> str:
    return "\n".join(
        ".word " + ", ".join(str(v & 0xFFFFFFFF) for v in values[i : i + 8])
        for i in range(0, len(values), 8)
    )


def _axpy(reps: int, seed: int) -> str:
    rng = random.Random(seed)
    xs = [rng.randrange(1 << 15) for _ in range(_TABLE)]
    ys = [rng.randrange(1 << 15) for _ in range(_TABLE)]
    scalar = rng.randrange(3, 1 << 10)
    xbase, ybase = DATA_BASE, DATA_BASE + 4 * _TABLE
    return f"""
# y[i] += a * x[i] over a {_TABLE}-element table, {reps} sweeps
    li   s1, {reps}
    li   t2, {scalar}
outer:
    li   a0, {xbase}
    li   a1, {ybase}
    li   s0, {_TABLE}
loop:
    lw   t0, 0(a0)
    lw   t1, 0(a1)
    mul  t0, t0, t2
    add  t1, t1, t0
    sw   t1, 0(a1)
    addi a0, a0, 4
    addi a1, a1, 4
    addi s0, s0, -1
    bnez s0, loop
    addi s1, s1, -1
    bnez s1, outer
    ecall
.data
{_words(xs + ys)}
"""


def _stride(reps: int, seed: int) -> str:
    rng = random.Random(seed)
    table = [rng.randrange(1 << 20) for _ in range(_TABLE)]
    stride = rng.choice([3, 5, 7, 11])
    return f"""
# strided gather-sum, index wraps with a power-of-two mask
    li   s1, {reps}
    li   a0, {DATA_BASE}
    li   s2, 0
outer:
    li   s0, {_TABLE}
    li   t3, 0
loop:
    slli t0, t3, 2
    add  t0, t0, a0
    lw   t1, 0(t0)
    add  s2, s2, t1
    addi t3, t3, {stride}
    andi t3, t3, {_TABLE - 1}
    addi s0, s0, -1
    bnez s0, loop
    addi s1, s1, -1
    bnez s1, outer
    ecall
.data
{_words(table)}
"""


def _hashmix(reps: int, seed: int) -> str:
    rng = random.Random(seed)
    state = rng.randrange(1, 1 << 30)
    mult = rng.randrange(1 << 8, 1 << 15) | 1
    return f"""
# xorshift*-flavored integer mixing, multiply-heavy
    li   s1, {reps}
    li   t0, {state}
    li   t2, {mult}
    li   s2, 0
outer:
    li   s0, 32
loop:
    slli t1, t0, 13
    xor  t0, t0, t1
    srli t1, t0, 17
    xor  t0, t0, t1
    slli t1, t0, 5
    xor  t0, t0, t1
    mul  t0, t0, t2
    add  s2, s2, t0
    addi s0, s0, -1
    bnez s0, loop
    addi s1, s1, -1
    bnez s1, outer
    ecall
"""


def _crc(reps: int, seed: int) -> str:
    rng = random.Random(seed)
    table = [rng.randrange(1 << 31) for _ in range(_TABLE)]
    poly = 0xEDB88320
    return f"""
# bitwise CRC over a word table (data-dependent branch per bit)
    li   s1, {reps}
    li   t5, {poly}
    li   s2, -1
outer:
    li   a0, {DATA_BASE}
    li   s0, {_TABLE}
word:
    lw   t0, 0(a0)
    xor  s2, s2, t0
    li   t3, 8
bit:
    andi t1, s2, 1
    srli s2, s2, 1
    beqz t1, skip
    xor  s2, s2, t5
skip:
    addi t3, t3, -1
    bnez t3, bit
    addi a0, a0, 4
    addi s0, s0, -1
    bnez s0, word
    addi s1, s1, -1
    bnez s1, outer
    ecall
.data
{_words(table)}
"""


def _gcd(reps: int, seed: int) -> str:
    rng = random.Random(seed)
    pairs: list[int] = []
    for _ in range(_TABLE // 2):
        pairs.append(rng.randrange(1, 1 << 16))
        pairs.append(rng.randrange(1, 1 << 16))
    return f"""
# Euclid's gcd over a table of pairs, through a real call/ret
    li   s1, {reps}
    li   s2, 0
outer:
    li   s3, {DATA_BASE}
    li   s0, {_TABLE // 2}
pair:
    lw   a0, 0(s3)
    lw   a1, 4(s3)
    call gcd
    add  s2, s2, a0
    addi s3, s3, 8
    addi s0, s0, -1
    bnez s0, pair
    addi s1, s1, -1
    bnez s1, outer
    ecall

gcd:
    beqz a1, gcd_done
    rem  t0, a0, a1
    mv   a0, a1
    mv   a1, t0
    j    gcd
gcd_done:
    ret
.data
{_words(pairs)}
"""


def _bsearch(reps: int, seed: int) -> str:
    rng = random.Random(seed)
    table = sorted(rng.randrange(1 << 10) for _ in range(_TABLE))
    lcg_a, lcg_c = 1103515245, 12345
    return f"""
# binary search for LCG-generated keys in a sorted table
    li   s1, {reps}
    li   t6, {seed * 2654435761 % (1 << 31) or 1}
    li   s4, {lcg_a}
    li   s5, {lcg_c}
    li   s2, 0
outer:
    mul  t6, t6, s4
    add  t6, t6, s5
    li   t5, {(1 << 10) - 1}
    and  a2, t6, t5
    li   a0, 0
    li   a1, {_TABLE}
search:
    bge  a0, a1, found
    add  t0, a0, a1
    srli t0, t0, 1
    slli t1, t0, 2
    li   t2, {DATA_BASE}
    add  t1, t1, t2
    lw   t3, 0(t1)
    bge  t3, a2, go_left
    addi a0, t0, 1
    j    search
go_left:
    mv   a1, t0
    j    search
found:
    add  s2, s2, a0
    addi s1, s1, -1
    bnez s1, outer
    ecall
.data
{_words(table)}
"""


def _specs() -> list[RvWorkloadSpec]:
    return [
        RvWorkloadSpec(
            "rv.axpy", "stream", "unit-stride y[i] += a*x[i]", _axpy
        ),
        RvWorkloadSpec(
            "rv.stride", "stream", "masked strided gather-sum", _stride
        ),
        RvWorkloadSpec(
            "rv.hashmix", "compute", "xorshift*-style integer mixing", _hashmix
        ),
        RvWorkloadSpec("rv.crc", "compute", "bitwise CRC over a table", _crc),
        RvWorkloadSpec("rv.gcd", "branchy", "Euclid gcd via call/ret", _gcd),
        RvWorkloadSpec(
            "rv.bsearch", "branchy", "binary search, LCG keys", _bsearch
        ),
    ]


#: name -> spec for every RV benchmark.
BENCHMARKS: dict[str, RvWorkloadSpec] = {s.name: s for s in _specs()}
ALL_BENCHMARKS: tuple[str, ...] = tuple(sorted(BENCHMARKS))
TRAIN_BENCHMARKS: tuple[str, ...] = ("rv.axpy", "rv.crc", "rv.gcd", "rv.hashmix")
TEST_BENCHMARKS: tuple[str, ...] = ("rv.bsearch", "rv.stride")

#: benchmark name -> category tag (cross-ISA delta reporting).
CATEGORIES: dict[str, str] = {name: spec.category for name, spec in BENCHMARKS.items()}

_TRACE_CACHE: dict[tuple[str, int, int], Trace] = {}


def build_program(name: str, reps: int, seed: int = 0) -> RvProgram:
    """Assemble benchmark ``name`` (raises ``KeyError`` if unknown)."""
    return BENCHMARKS[name].build(reps, seed)


def get_trace(
    name: str, max_instructions: int, seed: int | None = None,
    memo: bool = True,
) -> Trace:
    """Memoized canonical trace of benchmark ``name``.

    ``reps`` is set to ``max_instructions`` so the outer loop always
    outlasts the cap — the cap, not loop exit, bounds the trace (the
    mini-ASM ``trace_benchmark`` convention).  ``memo=False`` reads the
    memo but does not add a new trace to it.
    """
    seed = seed or 0
    key = (name, max_instructions, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        program = build_program(name, reps=max_instructions, seed=seed)
        trace = run_program(program, max_instructions=max_instructions, name=name)
        if memo:
            _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop memoized traces (tests and long-lived workers)."""
    _TRACE_CACHE.clear()
