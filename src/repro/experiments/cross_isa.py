"""Cross-ISA generalization — train on mini-ASM, evaluate zero-shot on RV.

The feature encoding (Table I) is deliberately microarchitecture- and
ISA-independent: every frontend maps its opcodes and registers onto the
shared operation-class vocabulary before a trace reaches the encoders.
This experiment measures how far that buys actual *transfer*: each
transferable model family is trained on the mini-ASM training split,
evaluated natively on the mini-ASM test split, then evaluated — with the
same stored artifact, zero retraining — on the RISC-V frontend's kernel
suite, and the per-family error deltas are reported.

Only families whose serving inputs are benchmark-independent can
transfer: ``perfvec`` (feature streams), ``ithemal`` and ``simnet``
(regenerated traces). The per-program baselines answer from state keyed
by fitted benchmark names and ``cross_program`` needs measured signature
times, so they are structurally ISA-bound — the report notes them as
such rather than silently skipping them.

The analysis also exercises the external-trace loop end to end: one RV
benchmark trace is exported to the documented JSONL schema, re-imported
under a deterministic name, verified byte-identical against the
original, and imported *again* to prove the content-addressed import
cache answers the repeat without re-parsing.
"""

from __future__ import annotations

import os

from repro.pipeline import ExperimentSpec, analysis, stage
from repro.pipeline.stages import upstream_train
from repro.workloads import TEST_BENCHMARKS

#: The train stages of the families whose serving inputs let a mini-ASM
#: artifact answer RV benchmarks: perfvec, ithemal and simnet (see the
#: module docstring).
TRANSFER_STAGES = ("foundation", "train_ithemal", "train_simnet")

#: Families that structurally cannot transfer across frontends.
BOUND_FAMILIES = ("actboost", "cross_program", "program_specific")

#: The RV benchmark exported/imported by the round-trip check.
ROUNDTRIP_BENCHMARK = "rv.gcd"


def _roundtrip(ctx) -> dict:
    """Export one RV trace, import it back, verify identity + cache hit."""
    import numpy as np

    from repro.cache import cache_root
    from repro.frontends import get_frontend
    from repro.frontends.trace_import import (
        export_trace,
        import_trace,
        load_imported,
    )

    trace = get_frontend("rv").trace(
        ROUNDTRIP_BENCHMARK, ctx.scale.instructions
    )
    export_dir = os.path.join(cache_root(ctx.cache_dir), "exports")
    os.makedirs(export_dir, exist_ok=True)
    safe = ROUNDTRIP_BENCHMARK.replace(".", "_")
    path = os.path.join(export_dir, f"cross_isa_{safe}.jsonl")
    export_trace(trace, path)
    # exported files carry canonical mnemonics + integer register ids, so
    # they re-import under the shared (default) vocabulary
    name = f"cross_isa_{safe}"
    first = import_trace(path, name=name)
    again = import_trace(path, name=name)
    loaded = load_imported(name)
    identical = (
        len(loaded) == len(trace)
        and bool(np.array_equal(loaded.opid, trace.opid))
        and bool(np.array_equal(loaded.pc, trace.pc))
        and bool(np.array_equal(loaded.src_slots, trace.src_slots))
        and bool(np.array_equal(loaded.dst_slots, trace.dst_slots))
        and bool(np.array_equal(loaded.mem_addr, trace.mem_addr))
        and bool(np.array_equal(loaded.branch_taken, trace.branch_taken))
        and bool(np.array_equal(loaded.branch_target, trace.branch_target))
    )
    return {
        "rows": first.rows,
        "digest": first.digest,
        "identical": identical,
        "reimport_cache_hit": again.cache_hit,
    }


@analysis("cross_isa")
def analyze(ctx, params, inputs) -> dict:
    from repro.api import Session
    from repro.frontends import get_frontend

    native = Session(
        scale=ctx.scale, cache_dir=ctx.cache_dir, jobs=ctx.jobs
    )
    rv = Session(
        scale=ctx.scale, cache_dir=ctx.cache_dir, jobs=ctx.jobs,
        frontend="rv",
    )
    rv_benchmarks = get_frontend("rv").benchmarks()

    rows = []
    metrics: dict[str, float] = {}
    for need in TRANSFER_STAGES:
        trained = upstream_train(inputs, need)
        family, artifact = trained["family"], trained["artifact"]
        native_errors = native.evaluate(TEST_BENCHMARKS, artifact=artifact)
        rv_errors = rv.evaluate(rv_benchmarks, artifact=artifact)
        native_mean = sum(s.mean for s in native_errors.values()) / len(
            native_errors
        )
        rv_mean = sum(s.mean for s in rv_errors.values()) / len(rv_errors)
        delta = rv_mean - native_mean
        rows.append([
            family, f"{native_mean:.1%}", f"{rv_mean:.1%}",
            f"{delta:+.1%}",
        ])
        metrics[f"{family}_native_error"] = native_mean
        metrics[f"{family}_rv_error"] = rv_mean
        metrics[f"{family}_delta"] = delta

    roundtrip = _roundtrip(ctx)
    metrics["roundtrip_identical"] = float(roundtrip["identical"])
    metrics["reimport_cache_hit"] = float(roundtrip["reimport_cache_hit"])
    notes = [
        "zero-shot: mini-ASM artifacts served unmodified on RV traces",
        f"not transferable (per-program/measured inputs): "
        f"{', '.join(BOUND_FAMILIES)}",
        f"trace round-trip {ROUNDTRIP_BENCHMARK}: "
        f"{roundtrip['rows']} rows, digest {roundtrip['digest'][:12]}, "
        f"identical={roundtrip['identical']}, "
        f"reimport cache_hit={roundtrip['reimport_cache_hit']}",
    ]
    return {
        "headers": ["family", "native (mini-asm test)", "rv zero-shot",
                    "delta"],
        "rows": rows,
        "metrics": metrics,
        "notes": notes,
    }


SPEC = ExperimentSpec(
    name="cross_isa",
    title="Cross-ISA zero-shot generalization (mini-ASM -> RV)",
    description=(
        "Train on mini-ASM, evaluate zero-shot on the RISC-V frontend's "
        "kernel suite; per-family error deltas + trace import round-trip"
    ),
    stages=(
        stage("train_data", "dataset", benchmarks="train"),
        stage("rv_data", "dataset", benchmarks="all", isa="rv"),
        stage("foundation", "train", benchmarks="train",
              needs=("train_data",)),
        stage("train_ithemal", "train", benchmarks="train",
              family="ithemal", needs=("train_data",)),
        stage("train_simnet", "train", benchmarks="train",
              family="simnet", needs=("train_data",)),
        stage("analyze", "analysis", fn="cross_isa",
              needs=(*TRANSFER_STAGES, "rv_data")),
        stage("report", "report",
              title="Cross-ISA zero-shot generalization (mini-ASM -> RV)",
              needs=("analyze",)),
    ),
)
