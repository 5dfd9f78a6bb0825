"""Scientific-computing kernels (the FP side of Table II).

``namd``/``nab`` are pairwise-force n-body loops (divide/sqrt-heavy, with a
cutoff branch for ``namd``), ``cam4`` a column-physics update with clamping
conditionals, and ``cactubssn`` a long straight-line FP expression chain per
grid point (high FP instruction-level parallelism, few branches).
"""

from __future__ import annotations

from repro.isa import Program, assemble
from repro.workloads.builders import data_fp, fresh_label, outer_repeat, random_fp


def namd(n_atoms: int = 64, cutoff: float = 0.25, reps: int = 1, seed: int = 508) -> Program:
    """Pairwise force accumulation with a squared-distance cutoff branch."""
    if n_atoms < 4:
        raise ValueError("need at least 4 atoms")
    li, lj, skip = fresh_label("nd_i"), fresh_label("nd_j"), fresh_label("nd_skip")
    body = f"""
    movi r1, 0
{li}:
    fld  f1, [r7 + r1*8]
    fld  f2, [r8 + r1*8]
    fld  f3, [r9 + r1*8]
    addi r2, r1, 1
{lj}:
    fld  f4, [r7 + r2*8]
    fld  f5, [r8 + r2*8]
    fld  f6, [r9 + r2*8]
    fsub f4, f4, f1
    fsub f5, f5, f2
    fsub f6, f6, f3
    fmul f7, f4, f4
    fma  f7, f5, f5, f7
    fma  f7, f6, f6, f7
    fcmplt r10, f10, f7
    bnez r10, {skip}
    ; inside cutoff: r = sqrt(r2); w = 1 / (r2 * r); accumulate force
    fsqrt f8, f7
    fmul f8, f8, f7
    fdiv f8, f11, f8
    fmul f13, f8, f4
    fld  f9, [r13 + r1*8]
    fadd f9, f9, f13
    fst  f9, [r13 + r1*8]
    fld  f9, [r13 + r2*8]
    fsub f9, f9, f13
    fst  f9, [r13 + r2*8]
{skip}:
    addi r2, r2, 1
    blt  r2, r20, {lj}
    addi r1, r1, 1
    blt  r1, r21, {li}
"""
    stream = random_fp(seed, 3 * n_atoms)
    text = f"""
.data
{data_fp("nd_x", stream[:n_atoms])}
{data_fp("nd_y", stream[n_atoms : 2 * n_atoms])}
{data_fp("nd_z", stream[2 * n_atoms :])}
nd_f: .space {8 * n_atoms}
.text
main:
    movi r20, {n_atoms}
    movi r21, {n_atoms - 1}
    movi r7, nd_x
    movi r8, nd_y
    movi r9, nd_z
    movi r13, nd_f
    fmovi f10, {cutoff!r}
    fmovi f11, 1.0
    movi r27, {reps}
    {outer_repeat(body)}
    halt
"""
    return assemble(text, name=f"namd_n{n_atoms}")


def nab(n_atoms: int = 48, reps: int = 1, seed: int = 544) -> Program:
    """Full O(n^2) pairwise energy (no cutoff): every pair pays sqrt+div."""
    if n_atoms < 4:
        raise ValueError("need at least 4 atoms")
    li, lj = fresh_label("nb_i"), fresh_label("nb_j")
    body = f"""
    fmovi f12, 0.0
    movi r1, 0
{li}:
    fld  f1, [r7 + r1*8]
    fld  f2, [r8 + r1*8]
    addi r2, r1, 1
{lj}:
    fld  f4, [r7 + r2*8]
    fld  f5, [r8 + r2*8]
    fsub f4, f4, f1
    fsub f5, f5, f2
    fmul f7, f4, f4
    fma  f7, f5, f5, f7
    fadd f7, f7, f11
    fsqrt f8, f7
    fdiv f9, f10, f8
    fadd f12, f12, f9
    addi r2, r2, 1
    blt  r2, r20, {lj}
    addi r1, r1, 1
    blt  r1, r21, {li}
    fst  f12, [r9]
"""
    stream = random_fp(seed, 2 * n_atoms)
    text = f"""
.data
{data_fp("nb_x", stream[:n_atoms])}
{data_fp("nb_y", stream[n_atoms:])}
nb_e: .space 8
.text
main:
    movi r20, {n_atoms}
    movi r21, {n_atoms - 1}
    movi r7, nb_x
    movi r8, nb_y
    movi r9, nb_e
    fmovi f10, 1.0
    fmovi f11, 0.01
    movi r27, {reps}
    {outer_repeat(body)}
    halt
"""
    return assemble(text, name=f"nab_n{n_atoms}")


def cam4(
    n_cols: int = 48, n_levs: int = 26, reps: int = 1, seed: int = 527
) -> Program:
    """Column-physics update: per-level FP recurrence with clamping branches.

    Every fourth level pays a divide (saturation adjustment), and negative
    moisture is clamped to zero through a branch — the mix of cheap FP and
    occasional expensive ops with data-dependent control that characterizes
    atmosphere physics packages.
    """
    if n_cols < 1 or n_levs < 4:
        raise ValueError("bad cam4 parameters")
    lc, ll, nodiv, noclamp = (
        fresh_label("cam_c"),
        fresh_label("cam_l"),
        fresh_label("cam_nd"),
        fresh_label("cam_nc"),
    )
    body = f"""
    movi r1, 0
{lc}:
    mul  r10, r1, r21
    movi r2, 0
{ll}:
    add  r11, r10, r2
    fld  f1, [r7 + r11*8]
    fld  f2, [r8 + r11*8]
    ; q' = q + dt * (a*t - b*q*q)
    fmul f3, f1, f1
    fmul f3, f3, f11
    fma  f4, f2, f10, f3
    fsub f4, f4, f3
    fsub f4, f4, f3
    fma  f1, f4, f12, f1
    ; every 4th level: divide by (1 + q*q)
    andi r12, r2, 3
    bnez r12, {nodiv}
    fmul f5, f1, f1
    fadd f5, f5, f13
    fdiv f1, f1, f5
{nodiv}:
    ; clamp negative moisture
    fcmplt r12, f1, f14
    beqz r12, {noclamp}
    fmov f1, f14
{noclamp}:
    fst  f1, [r7 + r11*8]
    addi r2, r2, 1
    blt  r2, r21, {ll}
    addi r1, r1, 1
    blt  r1, r20, {lc}
"""
    cells = n_cols * n_levs
    stream = random_fp(seed, 2 * cells)
    text = f"""
.data
{data_fp("cam_q", stream[:cells])}
{data_fp("cam_t", stream[cells:])}
.text
main:
    movi r20, {n_cols}
    movi r21, {n_levs}
    movi r7, cam_q
    movi r8, cam_t
    fmovi f10, 0.3
    fmovi f11, 0.2
    fmovi f12, 0.05
    fmovi f13, 1.0
    fmovi f14, 0.0
    movi r27, {reps}
    {outer_repeat(body)}
    halt
"""
    return assemble(text, name=f"cam4_{n_cols}x{n_levs}")


def cactubssn(n: int = 512, reps: int = 1, seed: int = 507) -> Program:
    """Long straight-line FP chain per point (BSSN-like update, high FP ILP)."""
    if n < 8:
        raise ValueError("n must be >= 8")
    loop = fresh_label("cb")
    body = f"""
    movi r1, 1
{loop}:
    subi r12, r1, 1
    fld  f1, [r7 + r12*8]
    fld  f2, [r7 + r1*8]
    addi r12, r1, 1
    fld  f3, [r7 + r12*8]
    ; a dense, mostly-independent FP expression tree
    fadd f4, f1, f3
    fsub f5, f3, f1
    fmul f6, f2, f2
    fmul f7, f4, f10
    fmul f8, f5, f5
    fma  f9, f6, f11, f7
    fma  f9, f8, f12, f9
    fmul f4, f4, f4
    fma  f9, f4, f13, f9
    fsub f5, f9, f2
    fmul f5, f5, f14
    fadd f2, f2, f5
    fmul f6, f2, f10
    fma  f2, f6, f12, f2
    fst  f2, [r8 + r1*8]
    fadd f3, f9, f8
    fmul f3, f3, f11
    fst  f3, [r9 + r1*8]
    addi r1, r1, 1
    blt  r1, r21, {loop}
    mov  r12, r7
    mov  r7, r8
    mov  r8, r12
"""
    text = f"""
.data
{data_fp("cb_a", random_fp(seed, n))}
cb_b: .space {8 * n}
cb_k: .space {8 * n}
.text
main:
    movi r21, {n - 1}
    movi r7, cb_a
    movi r8, cb_b
    movi r9, cb_k
    fmovi f10, 0.5
    fmovi f11, 0.25
    fmovi f12, 0.125
    fmovi f13, 0.0625
    fmovi f14, 0.1
    movi r27, {reps}
    {outer_repeat(body)}
    halt
"""
    return assemble(text, name=f"cactubssn_n{n}")
