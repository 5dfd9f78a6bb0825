"""Unit tests for the two-pass assembler."""

import pytest

from repro.isa import (
    CODE_BASE,
    DATA_BASE,
    AssemblyError,
    assemble,
)
from repro.isa.registers import LR, REG_NONE, fp_reg


def test_minimal_program():
    prog = assemble("main: halt")
    assert len(prog) == 1
    assert prog.entry == CODE_BASE
    assert prog.code[0].op.mnemonic == "halt"


def test_labels_resolve_to_pcs():
    prog = assemble(
        """
        main:   movi r1, 5
        loop:   subi r1, r1, 1
                bnez r1, loop
                halt
        """
    )
    assert prog.symbol("main") == CODE_BASE
    assert prog.symbol("loop") == CODE_BASE + 4
    bnez = prog.code[2]
    assert bnez.target == prog.symbol("loop")


def test_data_directives_layout():
    prog = assemble(
        """
        .data
        a:  .word 1, 2, 3
        b:  .double 1.5
        c:  .space 24
        d:  .word 7
        .text
        main: halt
        """
    )
    assert prog.symbol("a") == DATA_BASE
    assert prog.symbol("b") == DATA_BASE + 24
    assert prog.symbol("c") == DATA_BASE + 32
    assert prog.symbol("d") == DATA_BASE + 56
    assert prog.data[DATA_BASE] == 1
    assert prog.data[DATA_BASE + 16] == 3
    assert prog.data[DATA_BASE + 24] == 1.5
    assert prog.data[DATA_BASE + 56] == 7


def test_align_directive():
    prog = assemble(
        """
        .data
        a: .word 1
        .align 64
        b: .word 2
        .text
        main: halt
        """
    )
    assert prog.symbol("b") % 64 == 0
    assert prog.symbol("b") > prog.symbol("a")


def test_address_modes():
    prog = assemble(
        """
        .data
        buf: .space 64
        .text
        main:
            ld r1, [r2]
            ld r1, [r2 + 16]
            ld r1, [r2 + r3]
            ld r1, [r2 + r3*8 - 8]
            ld r1, [buf]
            ld r1, [buf + r4*8]
            halt
        """
    )
    modes = [inst.mem for inst in prog.code[:6]]
    assert modes[0].base == 2 and modes[0].offset == 0
    assert modes[1].offset == 16
    assert modes[2].index == 3 and modes[2].scale == 1
    assert modes[3].index == 3 and modes[3].scale == 8 and modes[3].offset == -8
    assert modes[4].base == 0 and modes[4].offset == prog.symbol("buf")
    assert modes[5].base == 0 and modes[5].index == 4 and modes[5].scale == 8


def test_store_value_is_source():
    prog = assemble("main: st r5, [r6 + 8]\n halt")
    st = prog.code[0]
    assert 5 in st.src_slots and 6 in st.src_slots
    assert st.dsts == ()


def test_call_ret_implicit_link_register():
    prog = assemble(
        """
        main: call fn
              halt
        fn:   ret
        """
    )
    call, _, ret = prog.code
    assert LR in call.dsts
    assert LR in ret.src_slots


def test_fp_operands_checked():
    with pytest.raises(AssemblyError):
        assemble("main: fadd f1, f2, r3\n halt")
    with pytest.raises(AssemblyError):
        assemble("main: add r1, f2, r3\n halt")


def test_operand_count_checked():
    with pytest.raises(AssemblyError):
        assemble("main: add r1, r2\n halt")


def test_unknown_opcode_rejected():
    with pytest.raises(AssemblyError):
        assemble("main: frobnicate r1\n halt")


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("main: nop\nmain: halt")


def test_unresolved_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("main: jmp nowhere")


def test_empty_program_rejected():
    with pytest.raises(AssemblyError):
        assemble("; just a comment")


def test_comments_and_blank_lines_ignored():
    prog = assemble(
        """
        ; leading comment
        main: nop   # trailing comment

              halt  ; done
        """
    )
    assert len(prog) == 2


def test_immediate_label_arithmetic():
    prog = assemble(
        """
        .data
        tbl: .space 80
        .text
        main: movi r1, tbl+16
              halt
        """
    )
    assert prog.code[0].imm == prog.symbol("tbl") + 16


def test_hex_and_negative_immediates():
    prog = assemble("main: movi r1, 0x10\n movi r2, -5\n halt")
    assert prog.code[0].imm == 16
    assert prog.code[1].imm == -5


def test_fmovi_float_immediate():
    prog = assemble("main: fmovi f1, 2.5\n halt")
    assert prog.code[0].imm == 2.5
    assert prog.code[0].dsts == (fp_reg(1),)


def test_listing_roundtrip_mentions_labels():
    prog = assemble(
        """
        main: movi r1, 3
        loop: subi r1, r1, 1
              bnez r1, loop
              halt
        """
    )
    text = prog.listing()
    assert "loop:" in text and "bnez" in text


def test_src_slots_padded():
    prog = assemble("main: add r1, r2, r3\n halt")
    add = prog.code[0]
    assert len(add.src_slots) == 8
    assert add.src_slots[:2] == (2, 3)
    assert all(s == REG_NONE for s in add.src_slots[2:])
    assert len(add.dst_slots) == 6
