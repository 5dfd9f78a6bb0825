"""The benchmark's measured processes.

``perfbench/run.py`` starts each measured operation in a fresh process
through this file, so the operation pays its own cold start and its peak
RSS is its own::

    python3 perfbench/child.py probe
    python3 perfbench/child.py fig3 OUT.json [--trace]
    python3 perfbench/child.py suite OUT.json [--trace]
    python3 perfbench/child.py prepare ROOT
    python3 perfbench/child.py serve LEDGER_DIR -- <repro serve args>

The cache root comes from ``REPRO_CACHE_DIR``, which the caller points at
a fresh directory. With ``--trace`` (and for ``serve``, always) the layer
wrappers of :mod:`ledger` are installed before the operation starts. A
``serve`` launcher's cluster workers are spawned processes that import
this file as ``__mp_main__``; they install the wrappers too and write
their own ledger when they exit.
"""

from __future__ import annotations

import json
import os
import sys
import time

import ledger as ledger_mod

#: Where launcher-started server processes write their ledgers.
LEDGER_DIR_ENV = "PERFBENCH_LEDGER_DIR"

SCALE = "bench"


def _import_program() -> None:
    """What every operation imports before it starts (timed as set-up)."""
    import repro.api  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.pipeline.presets  # noqa: F401


def _write(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _fig3(timed_done) -> dict:
    from repro.api import Session

    session = Session(scale=SCALE, jobs=1)
    start = time.perf_counter()
    first = session.run_pipeline("fig3_seen_unseen")
    wall = time.perf_counter() - start
    timed_done()
    # an immediate re-run must find every stage artifact (outside timing)
    again = Session(scale=SCALE, jobs=1).run_pipeline("fig3_seen_unseen")
    result = first.result
    return {
        "wall_s": wall,
        "executed": first.executed,
        "rerun_executed": again.executed,
        "rows": [row[:3] for row in result.rows],  # name, split, mean
        "seen_err": result.metrics["avg_seen_error"],
        "unseen_err": result.metrics["avg_unseen_error"],
    }


def _suite(timed_done) -> dict:
    from repro.cli import main
    from repro.experiments.common import get_scale, seen_configs
    from repro.features.dataset import build_dataset
    from repro.workloads import ALL_BENCHMARKS

    start = time.perf_counter()
    code = main(["bench-suite", "--scale", SCALE, "--jobs", "1"])
    wall = time.perf_counter() - start
    timed_done()
    if code != 0:
        raise SystemExit(f"bench-suite exited with {code}")
    # fingerprint of what was just built (a pure cache hit, outside timing)
    cfg = get_scale(SCALE)
    dataset = build_dataset(
        list(ALL_BENCHMARKS), seen_configs(cfg), cfg.instructions, jobs=1
    )
    return {"wall_s": wall, "fingerprint": dataset.fingerprint(),
            "rows": len(dataset)}


def _prepare(root: str) -> dict:
    """The serving artifact: the perfvec model trained on the training
    split, plus the simulated suite for its error check."""
    from repro.api import Session
    from repro.workloads import ALL_BENCHMARKS

    session = Session(scale=SCALE, cache_dir=root, jobs=1)
    artifact = session.train("perfvec", evaluate=False).artifact_id
    session.dataset(tuple(ALL_BENCHMARKS))
    return {"artifact": artifact}


def _run_op(op: str, out: str, traced: bool) -> None:
    """Run one timed operation; the ledger and metrics are taken when its
    timed region ends, so the checks after it are not charged to it."""
    ledger = None
    if traced:
        ledger = ledger_mod.Ledger()
        ledger_mod.install(ledger)
    taken: dict = {}

    def timed_done() -> None:
        taken["metrics_text"] = ledger_mod.metrics_text()
        if ledger is not None:
            taken["ledger"] = ledger.snapshot()

    ready = time.perf_counter()
    payload = {"fig3": _fig3, "suite": _suite}[op](timed_done)
    payload.update(taken, ready_t=ready)
    _write(out, payload)


def _serve(ledger_dir: str, argv: list[str]) -> int:
    from repro.cli import main

    ledger = ledger_mod.Ledger(keep_events=True)
    ledger_mod.install(ledger)
    try:
        return main(["serve", *argv])
    finally:
        ledger.dump(os.path.join(ledger_dir, f"ledger-{os.getpid()}.json"))


def _install_in_worker() -> None:
    """Spawned cluster worker: wrap, and write the ledger at exit."""
    from multiprocessing import util

    ledger_dir = os.environ[LEDGER_DIR_ENV]
    ledger = ledger_mod.Ledger(keep_events=True)
    ledger_mod.install(ledger)
    util.Finalize(
        None, ledger.dump,
        args=(os.path.join(ledger_dir, f"ledger-{os.getpid()}.json"),),
        exitpriority=100,
    )


def main(argv: list[str]) -> int:
    op = argv[0]
    _import_program()
    if op == "probe":
        return 0
    if op == "prepare":
        _write(os.path.join(argv[1], "prepared.json"), _prepare(argv[1]))
        return 0
    if op == "serve":
        return _serve(argv[1], argv[argv.index("--") + 1:])
    _run_op(op, argv[1], "--trace" in argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__" and os.environ.get(LEDGER_DIR_ENV):
    _install_in_worker()
