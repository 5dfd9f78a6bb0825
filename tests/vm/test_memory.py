"""Unit tests for the paged memory and bit-cast helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.vm.memory import (
    Memory,
    bits_to_float,
    float_to_bits,
    wrap_i64,
)


def test_unmapped_reads_zero():
    mem = Memory()
    assert mem.read_word(0) == 0
    assert mem.read_word(1 << 40) == 0


def test_word_roundtrip():
    mem = Memory()
    mem.write_word(64, 12345)
    assert mem.read_word(64) == 12345
    mem.write_word(64, -7)
    assert mem.read_word(64) == -7


def test_cross_page_isolation():
    mem = Memory()
    mem.write_word(4096 - 8, 1)
    mem.write_word(4096, 2)
    assert mem.read_word(4096 - 8) == 1
    assert mem.read_word(4096) == 2


def test_float_roundtrip():
    mem = Memory()
    mem.write_float(16, 3.5)
    assert mem.read_float(16) == 3.5
    assert mem.read_word(16) == float_to_bits(3.5)


def test_load_image_mixed_types():
    mem = Memory()
    mem.load_image({0: 42, 8: 2.25})
    assert mem.read_word(0) == 42
    assert mem.read_float(8) == 2.25


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_wrap_i64_identity_in_range(value):
    assert wrap_i64(value) == value


@given(st.integers())
def test_wrap_i64_range_and_congruence(value):
    wrapped = wrap_i64(value)
    assert -(2**63) <= wrapped < 2**63
    assert (wrapped - value) % (2**64) == 0


@given(st.floats(allow_nan=False))
def test_float_bits_roundtrip(value):
    assert bits_to_float(float_to_bits(value)) == value


def test_float_bits_roundtrip_special():
    assert math.isnan(bits_to_float(float_to_bits(float("nan"))))
    assert bits_to_float(float_to_bits(math.inf)) == math.inf
    # -0.0 preserves its sign bit through the cast.
    assert math.copysign(1.0, bits_to_float(float_to_bits(-0.0))) == -1.0


@given(st.integers(min_value=0, max_value=2**30), st.integers())
def test_memory_word_roundtrip_property(addr, value):
    mem = Memory()
    aligned = addr & ~7
    mem.write_word(aligned, value)
    assert mem.read_word(aligned) == wrap_i64(value)


def test_misaligned_float_and_word_independent_addresses():
    mem = Memory()
    mem.write_word(0, 1)
    mem.write_word(8, 2)
    assert (mem.read_word(0), mem.read_word(8)) == (1, 2)


@pytest.mark.parametrize("value", [0, 1, -1, 2**62, -(2**62)])
def test_write_word_wraps(value):
    mem = Memory()
    mem.write_word(0, value)
    assert mem.read_word(0) == wrap_i64(value)
