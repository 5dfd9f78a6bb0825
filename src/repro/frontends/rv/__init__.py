"""The RISC-V-flavored frontend: ISA, assembler, machine, kernels.

See :mod:`repro.frontends.rv.isa` for the subset definition and the
canonical opcode/register mapping that makes RV traces consumable by the
feature encoders and every model family unchanged.
"""

from __future__ import annotations

from repro.frontends.base import Frontend
from repro.vm.trace import Trace


class RvFrontend(Frontend):
    """RV32IM-ish ISA backend with its own assembler and interpreter."""

    name = "rv"
    description = "RISC-V-flavored RV32IM-ish backend, 6-kernel suite"

    def benchmarks(self) -> tuple[str, ...]:
        from repro.frontends.rv.kernels import ALL_BENCHMARKS

        return tuple(ALL_BENCHMARKS)

    def train_benchmarks(self) -> tuple[str, ...]:
        from repro.frontends.rv.kernels import TRAIN_BENCHMARKS

        return tuple(TRAIN_BENCHMARKS)

    def test_benchmarks(self) -> tuple[str, ...]:
        from repro.frontends.rv.kernels import TEST_BENCHMARKS

        return tuple(TEST_BENCHMARKS)

    def trace(
        self, benchmark: str, max_instructions: int, seed: int | None = None,
        memo: bool = True,
    ) -> Trace:
        from repro.frontends.rv.kernels import get_trace

        return get_trace(benchmark, max_instructions, seed=seed, memo=memo)

    def operation_id(self, mnemonic: str) -> int:
        from repro.frontends.rv.isa import CANONICAL_OPID, jump_opid

        mnemonic = mnemonic.lower()
        if mnemonic in ("jal", "jalr"):
            # context-free fallback: jal links, jalr is an indirect jump
            return jump_opid(mnemonic, rd=1 if mnemonic == "jal" else 2, rs1=2)
        return CANONICAL_OPID[mnemonic]

    def register_id(self, token: str) -> int:
        from repro.frontends.rv.isa import CANONICAL_REG, parse_xreg

        return CANONICAL_REG[parse_xreg(token)]


__all__ = ["RvFrontend"]
