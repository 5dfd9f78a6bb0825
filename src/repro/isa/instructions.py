"""Static instruction representation.

An :class:`Instruction` is the assembled, label-resolved form consumed by the
functional VM and the timing simulator.  Source/destination registers are
stored as *global* register ids (see :mod:`repro.isa.registers`); each
instruction additionally precomputes the padded operand-slot tuples used by
the trace recorder so that the per-dynamic-instruction cost stays small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpSpec
from repro.isa.registers import REG_NONE, reg_name

#: Operand-slot capacities from the paper's Table I.
MAX_SRC_SLOTS = 8
MAX_DST_SLOTS = 6


@dataclass(frozen=True)
class AddressMode:
    """``[base + index*scale + offset]`` data-memory addressing.

    ``base`` and ``index`` are global register ids (``index`` may be
    :data:`REG_NONE`), ``scale`` is one of 1/2/4/8 and ``offset`` a signed
    byte displacement.  Absolute addressing uses ``base = r0`` (zero).
    """

    base: int
    index: int = REG_NONE
    scale: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale: {self.scale}")
        if not 0 <= self.base < 32:
            raise ValueError("address base must be an integer register")
        if self.index != REG_NONE and not 0 <= self.index < 32:
            raise ValueError("address index must be an integer register")

    def registers(self) -> tuple[int, ...]:
        regs = [self.base]
        if self.index != REG_NONE:
            regs.append(self.index)
        return tuple(regs)

    def __str__(self) -> str:
        parts = [reg_name(self.base)]
        if self.index != REG_NONE:
            parts.append(
                reg_name(self.index) + (f"*{self.scale}" if self.scale != 1 else "")
            )
        if self.offset:
            parts.append(str(self.offset))
        return "[" + " + ".join(parts) + "]"


@dataclass(frozen=True)
class Instruction:
    """One static, label-resolved instruction."""

    op: OpSpec
    dsts: tuple[int, ...] = ()
    srcs: tuple[int, ...] = ()
    imm: int | float | None = None
    #: Resolved absolute target pc for direct control transfers.
    target: int | None = None
    mem: AddressMode | None = None
    #: Padded operand slots, precomputed for fast trace recording.
    src_slots: tuple[int, ...] = field(init=False, compare=False, repr=False)
    dst_slots: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        srcs = list(self.srcs)
        if self.mem is not None:
            srcs.extend(self.mem.registers())
        if len(srcs) > MAX_SRC_SLOTS:
            raise ValueError(f"too many source registers: {srcs}")
        if len(self.dsts) > MAX_DST_SLOTS:
            raise ValueError(f"too many destination registers: {self.dsts}")
        pad_s = tuple(srcs) + (REG_NONE,) * (MAX_SRC_SLOTS - len(srcs))
        pad_d = tuple(self.dsts) + (REG_NONE,) * (MAX_DST_SLOTS - len(self.dsts))
        object.__setattr__(self, "src_slots", pad_s)
        object.__setattr__(self, "dst_slots", pad_d)

    def to_asm(self, symbols: dict[int, str] | None = None) -> str:
        """Assembly text for this instruction (labels via ``symbols``)."""
        parts: list[str] = []
        parts.extend(reg_name(d) for d in self.dsts)
        parts.extend(reg_name(s) for s in self.srcs)
        if self.imm is not None:
            parts.append(repr(self.imm) if isinstance(self.imm, float) else str(self.imm))
        if self.target is not None:
            if symbols and self.target in symbols:
                parts.append(symbols[self.target])
            else:
                parts.append(hex(self.target))
        if self.mem is not None:
            parts.append(str(self.mem))
        return self.op.mnemonic + (" " + ", ".join(parts) if parts else "")

    def __str__(self) -> str:
        return self.to_asm()
