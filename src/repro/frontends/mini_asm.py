"""The original trace source: the in-repo mini-ASM VM and its suite.

A thin adapter — the workload suite (:mod:`repro.workloads`) already
produces canonical traces and memoizes them per process, so this
frontend just re-exposes it behind the :class:`Frontend` shape.
"""

from __future__ import annotations

from repro.frontends.base import Frontend
from repro.vm.trace import Trace


class MiniAsmFrontend(Frontend):
    """The in-repo mini-ASM VM (:mod:`repro.isa` / :mod:`repro.vm`)."""

    name = "mini-asm"
    description = "in-repo mini-ASM VM, 17-benchmark SPEC-like suite"

    def benchmarks(self) -> tuple[str, ...]:
        from repro.workloads import ALL_BENCHMARKS

        return tuple(ALL_BENCHMARKS)

    def train_benchmarks(self) -> tuple[str, ...]:
        from repro.workloads import TRAIN_BENCHMARKS

        return tuple(TRAIN_BENCHMARKS)

    def test_benchmarks(self) -> tuple[str, ...]:
        from repro.workloads import TEST_BENCHMARKS

        return tuple(TEST_BENCHMARKS)

    def trace(
        self, benchmark: str, max_instructions: int, seed: int | None = None,
        memo: bool = True,
    ) -> Trace:
        from repro.workloads import get_trace

        return get_trace(benchmark, max_instructions, seed=seed, memo=memo)

    def operation_id(self, mnemonic: str) -> int:
        from repro.isa.opcodes import opcode_id

        return opcode_id(mnemonic)

    def register_id(self, token: str) -> int:
        from repro.isa.registers import parse_reg

        return parse_reg(token)
