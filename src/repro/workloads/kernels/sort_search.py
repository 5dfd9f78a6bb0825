"""Branchy integer search kernels.

``quicksort`` exercises data-dependent branches and swaps (and doubles as a
functional-correctness oracle: memory is checked for sortedness in tests),
``exchange2`` is an N-queens backtracking counter (the SPEC benchmark is a
sudoku-style puzzle solver) and ``deepsjeng`` is a depth-limited game-tree
walk with score-based pruning over an explicit stack.
"""

from __future__ import annotations

from repro.isa import Program, assemble
from repro.workloads.builders import fresh_label, init_int_array, outer_repeat


def quicksort(n: int = 512, reps: int = 1, seed: int = 99) -> Program:
    """Iterative quicksort (Lomuto partition, explicit segment stack)."""
    if n <= 1:
        raise ValueError("n must be > 1")
    qloop, part, skip, qdone = (
        fresh_label("qs"),
        fresh_label("qs_part"),
        fresh_label("qs_skip"),
        fresh_label("qs_done"),
    )
    body = f"""
    ; re-randomize the array so every repetition sorts fresh data
    {init_int_array("r7", "r20", 1 << 30)}
    ; push (0, n-1)
    movi r9, 0
    st   r0, [r8 + r9*8]
    addi r9, r9, 1
    movi r10, {n - 1}
    st   r10, [r8 + r9*8]
    addi r9, r9, 1
{qloop}:
    beqz r9, {qdone}
    subi r9, r9, 1
    ld   r2, [r8 + r9*8]
    subi r9, r9, 1
    ld   r1, [r8 + r9*8]
    bge  r1, r2, {qloop}
    ld   r10, [r7 + r2*8]
    subi r3, r1, 1
    mov  r4, r1
{part}:
    ld   r11, [r7 + r4*8]
    blt  r10, r11, {skip}
    addi r3, r3, 1
    ld   r12, [r7 + r3*8]
    st   r11, [r7 + r3*8]
    st   r12, [r7 + r4*8]
{skip}:
    addi r4, r4, 1
    blt  r4, r2, {part}
    addi r3, r3, 1
    ld   r12, [r7 + r3*8]
    ld   r11, [r7 + r2*8]
    st   r11, [r7 + r3*8]
    st   r12, [r7 + r2*8]
    ; push (lo, p-1) and (p+1, hi)
    st   r1, [r8 + r9*8]
    addi r9, r9, 1
    subi r13, r3, 1
    st   r13, [r8 + r9*8]
    addi r9, r9, 1
    addi r13, r3, 1
    st   r13, [r8 + r9*8]
    addi r9, r9, 1
    st   r2, [r8 + r9*8]
    addi r9, r9, 1
    jmp  {qloop}
{qdone}:
    nop
"""
    text = f"""
.data
qs_vals:  .space {8 * n}
qs_stack: .space {8 * 4 * n}
.text
main:
    movi r30, {seed}
    movi r20, {n}
    movi r7, qs_vals
    movi r8, qs_stack
    movi r27, {reps}
    {outer_repeat(body)}
    halt
"""
    return assemble(text, name=f"quicksort_n{n}")


def exchange2(n_queens: int = 8, reps: int = 1, seed: int = 4) -> Program:
    """N-queens backtracking solution counter (branch-dominated integer)."""
    if not 4 <= n_queens <= 12:
        raise ValueError("n_queens must be in [4, 12]")
    step, retreat, check, conflict, place, done = (
        fresh_label("nq_step"),
        fresh_label("nq_ret"),
        fresh_label("nq_chk"),
        fresh_label("nq_con"),
        fresh_label("nq_place"),
        fresh_label("nq_done"),
    )
    deeper_label = fresh_label("nq_deep")
    body = f"""
    ; col[0] = -1, row = 0, count r3
    movi r1, 0
    movi r10, -1
    st   r10, [r8]
    movi r3, 0
{step}:
    ld   r10, [r8 + r1*8]
    addi r10, r10, 1
    st   r10, [r8 + r1*8]
    blt  r10, r20, {check}
{retreat}:
    subi r1, r1, 1
    bge  r1, r0, {step}
    jmp  {done}
{check}:
    ; conflicts with rows 0..row-1?
    movi r2, 0
{conflict}:
    bge  r2, r1, {place}
    ld   r11, [r8 + r2*8]
    sub  r12, r10, r11
    beqz r12, {step}
    sub  r13, r1, r2
    sub  r14, r0, r12
    max  r12, r12, r14
    seq  r14, r12, r13
    bnez r14, {step}
    addi r2, r2, 1
    jmp  {conflict}
{place}:
    addi r13, r1, 1
    blt  r13, r20, {deeper_label}
    addi r3, r3, 1
    jmp  {step}
{deeper_label}:
    mov  r1, r13
    movi r10, -1
    st   r10, [r8 + r1*8]
    jmp  {step}
{done}:
    st   r3, [r9]
"""
    text = f"""
.data
nq_cols: .space {8 * (n_queens + 1)}
nq_out:  .space 8
.text
main:
    movi r30, {seed}
    movi r20, {n_queens}
    movi r8, nq_cols
    movi r9, nq_out
    movi r27, {reps}
    {outer_repeat(body)}
    halt
"""
    return assemble(text, name=f"exchange2_q{n_queens}")


def deepsjeng(
    depth: int = 9, branching: int = 4, reps: int = 1, seed: int = 777
) -> Program:
    """Depth-limited game-tree walk with score pruning over an explicit stack.

    Each node derives a pseudo-random score from its path hash; children are
    pruned when the score falls below a moving bound, producing the highly
    data-dependent control flow characteristic of game-tree searchers.
    """
    if depth < 2 or branching < 2:
        raise ValueError("need depth >= 2 and branching >= 2")
    loop, expand, kids, prune, done = (
        fresh_label("ds"),
        fresh_label("ds_exp"),
        fresh_label("ds_kids"),
        fresh_label("ds_prune"),
        fresh_label("ds_done"),
    )
    body = f"""
    ; stack of (hash, depth) pairs; r1 = stack top (in words)
    movi r1, 0
    movi r10, {seed & 0x7FFFFFFF}
    st   r10, [r8 + r1*8]
    addi r1, r1, 1
    st   r0, [r8 + r1*8]
    addi r1, r1, 1
    movi r3, 0
    movi r4, 0
{loop}:
    beqz r1, {done}
    subi r1, r1, 1
    ld   r2, [r8 + r1*8]
    subi r1, r1, 1
    ld   r10, [r8 + r1*8]
    ; score = mix(hash)
    muli r11, r10, 2654435761
    shri r11, r11, 17
    andi r11, r11, 1023
    add  r3, r3, r11
    ; leaf?
    bge  r2, r21, {loop}
    ; prune when score below running bound (bound adapts)
    shri r12, r3, 6
    andi r12, r12, 1023
    blt  r11, r12, {prune}
{expand}:
    movi r5, 0
{kids}:
    ; child hash = hash * 31 + k + 1
    muli r13, r10, 31
    add  r13, r13, r5
    addi r13, r13, 1
    andi r13, r13, 0x7fffffff
    st   r13, [r8 + r1*8]
    addi r1, r1, 1
    addi r14, r2, 1
    st   r14, [r8 + r1*8]
    addi r1, r1, 1
    addi r5, r5, 1
    blt  r5, r20, {kids}
    jmp  {loop}
{prune}:
    addi r4, r4, 1
    jmp  {loop}
{done}:
    st   r3, [r9]
    st   r4, [r9 + 8]
"""
    # Worst-case stack: branching * depth pairs, padded generously.
    stack_words = 2 * (branching * (depth + 2) + 4)
    text = f"""
.data
ds_stack: .space {8 * stack_words}
ds_out:   .space 16
.text
main:
    movi r30, {seed}
    movi r20, {branching}
    movi r21, {depth}
    movi r8, ds_stack
    movi r9, ds_out
    movi r27, {reps}
    {outer_repeat(body)}
    halt
"""
    return assemble(text, name=f"deepsjeng_d{depth}_b{branching}")
