"""Shared assembly-construction helpers for workload kernels.

Kernels are written as f-string templates over these snippets.  Register
conventions used throughout the kernel modules:

* ``r20``-``r27`` — kernel parameters (sizes, bases) set once in the prologue,
* ``r1``-``r9``   — loop counters and addresses,
* ``r10``-``r19`` — temporaries,
* ``r30``         — LCG state for pseudo-random data,
* ``f1``-``f15``  — floating-point temporaries.
"""

from __future__ import annotations

import itertools

#: Knuth's MMIX LCG constants; multiplication wraps mod 2^64 in the VM.
LCG_A = 6364136223846793005
LCG_C = 1442695040888963407

_label_counter = itertools.count()


def fresh_label(stem: str) -> str:
    """Globally unique label (kernels may be concatenated into one program)."""
    return f"{stem}_{next(_label_counter)}"


def lcg_step(dst: str, state: str = "r30") -> str:
    """Advance the LCG in ``state`` and leave a positive 31-bit value in ``dst``.

    ``dst`` and ``state`` must differ unless the caller only needs the raw
    64-bit state.
    """
    return f"""
    muli {state}, {state}, {LCG_A}
    addi {state}, {state}, {LCG_C}
    shri {dst}, {state}, 33
    andi {dst}, {dst}, 0x7fffffff
    """


def init_int_array(base_reg: str, count_reg: str, mod: int, state: str = "r30") -> str:
    """Fill ``count_reg`` words at ``base_reg`` with LCG values in [0, mod).

    Clobbers r14, r15, r16 and the LCG state.
    """
    loop = fresh_label("init_i")
    return f"""
    movi r14, 0
{loop}:
    {lcg_step("r15", state)}
    movi r16, {mod}
    rem  r15, r15, r16
    st   r15, [{base_reg} + r14*8]
    addi r14, r14, 1
    blt  r14, {count_reg}, {loop}
    """



def py_lcg(seed: int, count: int, mod: int | None = None) -> list[int]:
    """Python replica of the ASM LCG stream (same constants, same shifts).

    Returns ``count`` values in ``[0, 2^31)``, reduced mod ``mod`` if given.
    Used to pre-initialize data segments so kernels start executing their
    hot loops immediately instead of spending the trace budget on init
    loops.
    """
    mask64 = (1 << 64) - 1
    x = seed & mask64
    out = []
    for _ in range(count):
        x = (x * LCG_A + LCG_C) & mask64
        value = (x >> 33) & 0x7FFFFFFF
        out.append(value % mod if mod else value)
    return out


def data_int(label: str, values: list[int], per_line: int = 16) -> str:
    """``.word`` data-segment block holding ``values`` under ``label``."""
    lines = [f"{label}:"]
    for i in range(0, len(values), per_line):
        chunk = ", ".join(str(v) for v in values[i : i + per_line])
        lines.append(f"    .word {chunk}")
    return "\n".join(lines)


def data_fp(label: str, values: list[float], per_line: int = 8) -> str:
    """``.double`` data-segment block holding ``values`` under ``label``."""
    lines = [f"{label}:"]
    for i in range(0, len(values), per_line):
        chunk = ", ".join(repr(float(v)) for v in values[i : i + per_line])
        lines.append(f"    .double {chunk}")
    return "\n".join(lines)


def random_fp(seed: int, count: int, scale: float = 1.0) -> list[float]:
    """``count`` floats in ``[0, scale)`` from the shared LCG stream."""
    return [v * scale / float(1 << 31) for v in py_lcg(seed, count)]


def outer_repeat(body: str, reps_reg: str = "r27", counter: str = "r29") -> str:
    """Wrap ``body`` in an outer repetition loop so traces reach any length.

    The counter register must not be touched by the body.
    """
    loop = fresh_label("repeat")
    return f"""
    movi {counter}, 0
{loop}:
{body}
    addi {counter}, {counter}, 1
    blt  {counter}, {reps_reg}, {loop}
    """
