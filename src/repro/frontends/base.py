"""The :class:`Frontend` protocol: one shape for every trace source.

A frontend is where dynamic instruction traces come from.  Everything
downstream of a :class:`~repro.vm.trace.Trace` — the timing simulator,
the Table I feature encoder, every model family — consumes the
*canonical* trace vocabulary (the mini-ASM opcode ids of
:mod:`repro.isa.opcodes` and the global register ids of
:mod:`repro.isa.registers`), so a frontend's single job is to produce
traces in that vocabulary:

* ``mini-asm`` — the in-repo VM and its 17-benchmark suite (the
  original, and the default everywhere);
* ``rv`` — the RISC-V-flavored ISA backend (:mod:`repro.frontends.rv`):
  its own assembler, encoder, interpreter and kernels, with
  opcodes and registers mapped onto the canonical vocabulary at trace
  time;
* ``imported`` — externally produced traces ingested by
  :mod:`repro.frontends.trace_import`.

Frontends with an *instruction vocabulary* (``has_vocabulary``)
additionally resolve textual opcode/register names for the trace
importer, so an external trace recorded against either ISA maps onto
the shared operation classes.
"""

from __future__ import annotations

import abc
from typing import ClassVar

from repro.vm.trace import Trace


class Frontend(abc.ABC):
    """One pluggable trace source (see module docstring)."""

    #: Registry key (``repro frontends list``).
    name: ClassVar[str] = ""
    #: One-line description for listings.
    description: ClassVar[str] = ""
    #: Whether :meth:`operation_id`/:meth:`register_id` resolve textual
    #: names (the trace importer needs a vocabulary to map against).
    has_vocabulary: ClassVar[bool] = True

    # -- workloads --------------------------------------------------------
    @abc.abstractmethod
    def benchmarks(self) -> tuple[str, ...]:
        """Every benchmark name this frontend can trace (sorted)."""

    def train_benchmarks(self) -> tuple[str, ...]:
        """The frontend's training split (the ``"train"`` alias)."""
        return self.benchmarks()

    def test_benchmarks(self) -> tuple[str, ...]:
        """The frontend's held-out split (the ``"test"`` alias)."""
        return self.benchmarks()

    @abc.abstractmethod
    def trace(
        self, benchmark: str, max_instructions: int, seed: int | None = None,
        memo: bool = True,
    ) -> Trace:
        """The benchmark's dynamic trace in the canonical vocabulary.

        Deterministic in ``(benchmark, max_instructions, seed)`` —
        dataset and feature caches key on exactly those inputs plus the
        frontend name.  Frontends that run a VM keep each trace in a
        process-wide memo, which dataset builds and DSE points share;
        ``memo=False`` (a serving miss) still reads that memo but adds
        nothing to it.
        """

    # -- vocabulary (trace importer) --------------------------------------
    def operation_id(self, mnemonic: str) -> int:
        """Canonical opcode id of ``mnemonic`` in this frontend's ISA.

        Raises ``KeyError`` for unknown mnemonics (the importer turns
        that into a line-located diagnostic).
        """
        raise NotImplementedError(
            f"frontend {self.name!r} has no instruction vocabulary"
        )

    def register_id(self, token: str) -> int:
        """Canonical global register id of ``token`` in this ISA.

        Raises ``ValueError`` for tokens that name no register.
        """
        raise NotImplementedError(
            f"frontend {self.name!r} has no register vocabulary"
        )
