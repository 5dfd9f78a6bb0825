"""RV32IM-ish ISA definition: opcodes, registers, canonical mapping.

A deliberately real subset of RV32I + M: integer ALU (register and
immediate forms), multiply/divide, byte/half/word loads and stores,
conditional branches, ``jal``/``jalr``, ``lui``/``auipc`` and ``fence``.
``ecall`` stops the machine (the mini-ASM ``halt`` analogue).  No
floating point — the cross-ISA experiments lean on the *integer*
behaviour overlap between the two ISAs.

Two mappings make RV traces consumable by everything downstream:

* **opcode -> canonical opcode id** (:data:`CANONICAL_OPID`): every RV
  mnemonic maps to the mini-ASM opcode of the same operation class
  (``sll`` -> ``shl``, ``lw`` -> ``ld``, ``bgeu`` -> ``bge``, ...), so
  the per-opcode property tables of :mod:`repro.vm.trace`, the
  :class:`~repro.sim.CPUSimulator` functional-unit model and the 51
  Table I features all apply unchanged.  ``jal``/``jalr`` resolve by
  *operand context* (:func:`jump_opid`): a ``jal`` writing ``ra`` is a
  ``call``, one writing ``x0`` a plain ``jmp``; a ``jalr`` through
  ``ra`` is a ``ret``, any other an indirect ``jr``.
* **x-register -> canonical global id** (:data:`CANONICAL_REG`): a
  bijection. ``x0`` is the hardwired zero (canonical ``r0``), ``x1/ra``
  the link register (``r31``), ``x2/sp`` the stack pointer (``r28``),
  and ``x3``-``x31`` enumerate the 29 canonical general-purpose ids —
  register *categories* (Table I) therefore carry the same meaning in
  both ISAs.

Encoding is the real RV32 layout (R/I/S/B/U/J formats): the assembler
(:mod:`repro.frontends.rv.assembler`) packs each instruction into its
32-bit word, and :func:`encode`'s field-range checks are how it rejects
out-of-range immediates and offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import OPCODE_IDS

# ---------------------------------------------------------------------------
# registers
# ---------------------------------------------------------------------------
#: ABI names of x0..x31, index = register number.
ABI_NAMES: tuple[str, ...] = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

_ABI_INDEX: dict[str, int] = {name: i for i, name in enumerate(ABI_NAMES)}
_ABI_INDEX["fp"] = 8  # s0 alias

#: x-register number -> canonical global register id (bijective).
#: zero/ra/sp land on their canonical counterparts; x3..x31 enumerate
#: the 29 canonical GENERAL-category ids in order.
_GENERAL_IDS = tuple(list(range(1, 28)) + [29, 30])
CANONICAL_REG: tuple[int, ...] = (0, 31, 28) + _GENERAL_IDS
assert len(CANONICAL_REG) == 32
assert len(set(CANONICAL_REG)) == 32


def parse_xreg(token: str) -> int:
    """RV register token (``x7``, ``a0``, ``sp``, ``fp``) -> x number."""
    token = token.strip().lower()
    index = _ABI_INDEX.get(token)
    if index is not None:
        return index
    if token.startswith("x") and token[1:].isdigit():
        index = int(token[1:])
        if 0 <= index < 32:
            return index
    raise ValueError(f"not a RISC-V register: {token!r}")


# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------
#: Encoding formats understood by the assembler.
FORMATS = ("R", "I", "IL", "S", "B", "U", "J", "SYS")

_OPC_OP = 0b0110011
_OPC_OP_IMM = 0b0010011
_OPC_LOAD = 0b0000011
_OPC_STORE = 0b0100011
_OPC_BRANCH = 0b1100011
_OPC_JAL = 0b1101111
_OPC_JALR = 0b1100111
_OPC_LUI = 0b0110111
_OPC_AUIPC = 0b0010111
_OPC_FENCE = 0b0001111
_OPC_SYSTEM = 0b1110011


@dataclass(frozen=True)
class RvOpSpec:
    """One RV mnemonic: encoding fields + canonical mapping."""

    mnemonic: str
    fmt: str  # one of FORMATS ("IL" = I-format load)
    opcode: int
    funct3: int = 0
    funct7: int = 0
    #: Canonical mini-ASM mnemonic (context-free mapping; jal/jalr refine
    #: by operand, see :func:`jump_opid`).
    canonical: str = ""


def _rv_specs() -> list[RvOpSpec]:
    R, OI = _OPC_OP, _OPC_OP_IMM
    return [
        # R-type integer ALU
        RvOpSpec("add", "R", R, 0b000, 0b0000000, "add"),
        RvOpSpec("sub", "R", R, 0b000, 0b0100000, "sub"),
        RvOpSpec("sll", "R", R, 0b001, 0b0000000, "shl"),
        RvOpSpec("slt", "R", R, 0b010, 0b0000000, "slt"),
        RvOpSpec("sltu", "R", R, 0b011, 0b0000000, "slt"),
        RvOpSpec("xor", "R", R, 0b100, 0b0000000, "xor"),
        RvOpSpec("srl", "R", R, 0b101, 0b0000000, "shr"),
        RvOpSpec("sra", "R", R, 0b101, 0b0100000, "shr"),
        RvOpSpec("or", "R", R, 0b110, 0b0000000, "or"),
        RvOpSpec("and", "R", R, 0b111, 0b0000000, "and"),
        # M extension
        RvOpSpec("mul", "R", R, 0b000, 0b0000001, "mul"),
        RvOpSpec("mulh", "R", R, 0b001, 0b0000001, "mul"),
        RvOpSpec("div", "R", R, 0b100, 0b0000001, "div"),
        RvOpSpec("divu", "R", R, 0b101, 0b0000001, "div"),
        RvOpSpec("rem", "R", R, 0b110, 0b0000001, "rem"),
        RvOpSpec("remu", "R", R, 0b111, 0b0000001, "rem"),
        # I-type ALU
        RvOpSpec("addi", "I", OI, 0b000, 0, "addi"),
        RvOpSpec("slti", "I", OI, 0b010, 0, "slti"),
        RvOpSpec("sltiu", "I", OI, 0b011, 0, "slti"),
        RvOpSpec("xori", "I", OI, 0b100, 0, "xori"),
        RvOpSpec("ori", "I", OI, 0b110, 0, "ori"),
        RvOpSpec("andi", "I", OI, 0b111, 0, "andi"),
        RvOpSpec("slli", "I", OI, 0b001, 0b0000000, "shli"),
        RvOpSpec("srli", "I", OI, 0b101, 0b0000000, "shri"),
        RvOpSpec("srai", "I", OI, 0b101, 0b0100000, "shri"),
        # upper immediates
        RvOpSpec("lui", "U", _OPC_LUI, 0, 0, "movi"),
        RvOpSpec("auipc", "U", _OPC_AUIPC, 0, 0, "movi"),
        # loads / stores
        RvOpSpec("lb", "IL", _OPC_LOAD, 0b000, 0, "ld"),
        RvOpSpec("lh", "IL", _OPC_LOAD, 0b001, 0, "ld"),
        RvOpSpec("lw", "IL", _OPC_LOAD, 0b010, 0, "ld"),
        RvOpSpec("lbu", "IL", _OPC_LOAD, 0b100, 0, "ld"),
        RvOpSpec("lhu", "IL", _OPC_LOAD, 0b101, 0, "ld"),
        RvOpSpec("sb", "S", _OPC_STORE, 0b000, 0, "st"),
        RvOpSpec("sh", "S", _OPC_STORE, 0b001, 0, "st"),
        RvOpSpec("sw", "S", _OPC_STORE, 0b010, 0, "st"),
        # branches
        RvOpSpec("beq", "B", _OPC_BRANCH, 0b000, 0, "beq"),
        RvOpSpec("bne", "B", _OPC_BRANCH, 0b001, 0, "bne"),
        RvOpSpec("blt", "B", _OPC_BRANCH, 0b100, 0, "blt"),
        RvOpSpec("bge", "B", _OPC_BRANCH, 0b101, 0, "bge"),
        RvOpSpec("bltu", "B", _OPC_BRANCH, 0b110, 0, "blt"),
        RvOpSpec("bgeu", "B", _OPC_BRANCH, 0b111, 0, "bge"),
        # jumps
        RvOpSpec("jal", "J", _OPC_JAL, 0, 0, "call"),
        RvOpSpec("jalr", "I", _OPC_JALR, 0b000, 0, "jr"),
        # misc
        RvOpSpec("fence", "SYS", _OPC_FENCE, 0b000, 0, "fence"),
        RvOpSpec("ecall", "SYS", _OPC_SYSTEM, 0b000, 0, "halt"),
    ]


#: mnemonic -> RvOpSpec.
RV_OPCODES: dict[str, RvOpSpec] = {s.mnemonic: s for s in _rv_specs()}

#: RV mnemonic -> canonical opcode id (context-free; see jump_opid).
CANONICAL_OPID: dict[str, int] = {
    name: OPCODE_IDS[spec.canonical] for name, spec in RV_OPCODES.items()
}


def jump_opid(mnemonic: str, rd: int, rs1: int = 0) -> int:
    """Operand-refined canonical opcode id for ``jal``/``jalr``.

    ``jal ra, f`` is a ``call``; ``jal x0, l`` (the ``j`` pseudo) a plain
    ``jmp``.  ``jalr x0, ra, 0`` (the ``ret`` pseudo) maps to ``ret``;
    any other ``jalr`` is an indirect ``jr``.
    """
    if mnemonic == "jal":
        return OPCODE_IDS["call" if rd == 1 else "jmp"]
    if rd == 0 and rs1 == 1:
        return OPCODE_IDS["ret"]
    return OPCODE_IDS["jr"]


# ---------------------------------------------------------------------------
# encode field helpers (real RV32 bit layout)
# ---------------------------------------------------------------------------
class RvEncodingError(ValueError):
    """An operand does not fit its encoding field."""


def encode(
    spec: RvOpSpec, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0
) -> int:
    """Pack one instruction into its 32-bit word."""
    word = spec.opcode
    if spec.fmt == "R":
        word |= (rd << 7) | (spec.funct3 << 12) | (rs1 << 15)
        word |= (rs2 << 20) | (spec.funct7 << 25)
    elif spec.fmt in ("I", "IL"):
        if spec.mnemonic in ("slli", "srli", "srai"):
            if not 0 <= imm < 32:
                raise RvEncodingError(f"shift amount {imm} out of range [0, 31]")
            imm = imm | (spec.funct7 << 5)
        elif not -2048 <= imm <= 2047:
            raise RvEncodingError(f"I-immediate {imm} out of range [-2048, 2047]")
        word |= (rd << 7) | (spec.funct3 << 12) | (rs1 << 15)
        word |= (imm & 0xFFF) << 20
    elif spec.fmt == "S":
        if not -2048 <= imm <= 2047:
            raise RvEncodingError(f"S-immediate {imm} out of range [-2048, 2047]")
        word |= ((imm & 0x1F) << 7) | (spec.funct3 << 12)
        word |= (rs1 << 15) | (rs2 << 20) | (((imm >> 5) & 0x7F) << 25)
    elif spec.fmt == "B":
        if not -4096 <= imm <= 4094 or imm & 1:
            raise RvEncodingError(f"branch offset {imm} invalid (even, +/-4KiB)")
        word |= (((imm >> 11) & 1) << 7) | (((imm >> 1) & 0xF) << 8)
        word |= (spec.funct3 << 12) | (rs1 << 15) | (rs2 << 20)
        word |= (((imm >> 5) & 0x3F) << 25) | (((imm >> 12) & 1) << 31)
    elif spec.fmt == "U":
        if not 0 <= imm < (1 << 20):
            raise RvEncodingError(f"U-immediate {imm} out of range [0, 2^20)")
        word |= (rd << 7) | (imm << 12)
    elif spec.fmt == "J":
        if not -(1 << 20) <= imm <= (1 << 20) - 2 or imm & 1:
            raise RvEncodingError(f"jump offset {imm} invalid (even, +/-1MiB)")
        word |= (rd << 7) | (((imm >> 12) & 0xFF) << 12)
        word |= (((imm >> 11) & 1) << 20) | (((imm >> 1) & 0x3FF) << 21)
        word |= (((imm >> 20) & 1) << 31)
    elif spec.fmt == "SYS":
        word |= spec.funct3 << 12
    else:  # pragma: no cover - all formats enumerated above
        raise RvEncodingError(f"unknown format {spec.fmt!r}")
    return word & 0xFFFFFFFF
