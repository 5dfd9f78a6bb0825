"""Sparse paged word-addressed memory.

Memory is a dictionary of 4 KiB pages, each a NumPy ``int64`` array of 512
words.  Floating-point values are stored bit-cast into the same words, as on
real hardware.  All accesses are 8-byte words; the VM records sub-word
semantics at the ISA level (there are none — the mini-ASM is word-oriented,
which keeps the timing simulator's cache model exact).
"""

from __future__ import annotations

import struct

import numpy as np

PAGE_SHIFT = 12
PAGE_BYTES = 1 << PAGE_SHIFT
PAGE_WORDS = PAGE_BYTES // 8

_U64 = (1 << 64) - 1
_S64_SIGN = 1 << 63


def wrap_i64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's-complement."""
    value &= _U64
    return value - (1 << 64) if value >= _S64_SIGN else value


def float_to_bits(value: float) -> int:
    """Bit-cast a float64 to its signed 64-bit integer representation."""
    return wrap_i64(struct.unpack("<q", struct.pack("<d", value))[0])


def bits_to_float(value: int) -> float:
    """Bit-cast a signed 64-bit integer back to float64."""
    return struct.unpack("<d", struct.pack("<q", wrap_i64(value)))[0]


class Memory:
    """Sparse paged memory; unmapped reads return zero."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: dict[int, np.ndarray] = {}

    def _page_for_write(self, addr: int) -> np.ndarray:
        key = addr >> PAGE_SHIFT
        page = self._pages.get(key)
        if page is None:
            page = np.zeros(PAGE_WORDS, dtype=np.int64)
            self._pages[key] = page
        return page

    def read_word(self, addr: int) -> int:
        """Read the signed 64-bit word at byte address ``addr`` (8-aligned)."""
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return int(page[(addr & (PAGE_BYTES - 1)) >> 3])

    def write_word(self, addr: int, value: int) -> None:
        """Write a signed 64-bit word at byte address ``addr`` (8-aligned)."""
        page = self._page_for_write(addr)
        page[(addr & (PAGE_BYTES - 1)) >> 3] = wrap_i64(value)

    def read_float(self, addr: int) -> float:
        return bits_to_float(self.read_word(addr))

    def write_float(self, addr: int, value: float) -> None:
        self.write_word(addr, float_to_bits(value))

    def load_image(self, image: dict[int, int | float]) -> None:
        """Install a program's initial data image."""
        for addr, value in image.items():
            if isinstance(value, float):
                self.write_float(addr, value)
            else:
                self.write_word(addr, value)
