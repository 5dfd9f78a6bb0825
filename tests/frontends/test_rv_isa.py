"""RV ISA layer: register mapping, opcode mapping, encoding checks."""

import pytest

from repro.frontends.rv.isa import (
    CANONICAL_OPID,
    CANONICAL_REG,
    RV_OPCODES,
    RvEncodingError,
    encode,
    jump_opid,
    parse_xreg,
)
from repro.isa.opcodes import OPCODE_IDS
from repro.isa.registers import LR, SP


def test_register_map_is_a_bijection():
    assert len(CANONICAL_REG) == 32
    assert len(set(CANONICAL_REG)) == 32
    assert CANONICAL_REG[0] == 0  # x0 pins the zero register
    assert CANONICAL_REG[1] == LR  # x1/ra is the link register
    assert CANONICAL_REG[2] == SP  # x2/sp is the stack pointer


@pytest.mark.parametrize("token,num", [
    ("zero", 0), ("ra", 1), ("sp", 2), ("fp", 8), ("s0", 8),
    ("a0", 10), ("t6", 31), ("x0", 0), ("x31", 31),
])
def test_parse_xreg_accepts_abi_and_numeric_names(token, num):
    assert parse_xreg(token) == num


@pytest.mark.parametrize("token", ["x32", "q7", "a8", "x-1", ""])
def test_parse_xreg_rejects_bad_tokens(token):
    with pytest.raises(ValueError):
        parse_xreg(token)


def test_canonical_opid_covers_every_non_jump_spec():
    for mnemonic, spec in RV_OPCODES.items():
        if spec.fmt in ("J", "IJ"):  # jal/jalr resolve per operand
            continue
        assert mnemonic in CANONICAL_OPID, mnemonic


def test_jump_opid_call_ret_discrimination():
    assert jump_opid("jal", rd=1) == OPCODE_IDS["call"]
    assert jump_opid("jal", rd=0) == OPCODE_IDS["jmp"]
    assert jump_opid("jalr", rd=0, rs1=1) == OPCODE_IDS["ret"]
    assert jump_opid("jalr", rd=0, rs1=5) == OPCODE_IDS["jr"]


def test_encode_rejects_out_of_range_immediates():
    spec = RV_OPCODES["addi"]
    with pytest.raises(RvEncodingError):
        encode(spec, rd=1, rs1=1, rs2=0, imm=2048)
    with pytest.raises(RvEncodingError):
        encode(spec, rd=1, rs1=1, rs2=0, imm=-2049)

