"""Declarative pipeline & scenario API.

Experiments are expressed as **specs** — named DAGs of typed stages
(workload → trace/dataset → train-or-reuse → predict/evaluate → report)
— and executed by a :class:`Runner` with content-addressed, resumable
per-stage artifacts: a re-run only executes stages whose inputs changed.

>>> from repro.pipeline import load_spec, run_spec
>>> result = run_spec("fig3_seen_unseen", scale="smoke")   # preset spec
>>> result.summary()                     # '... 0 executed, 5 cached ...'
>>> custom = load_spec("examples/pipeline_spec.toml")      # user spec
>>> run_spec(custom, scale="smoke").result.render()

``repro pipeline run/sweep/list``, ``repro run``/``run-all`` and
:meth:`repro.api.Session.run_pipeline` are the CLI/facade front ends;
all of them execute through :func:`run_union`, which runs the union
plan of any number of specs (shared stages once).
"""

from repro.pipeline.executors import (
    BACKENDS,
    ExecutorBackend,
    LocalBackend,
    QueueBackend,
    make_backend,
)
from repro.pipeline.report import (
    ExperimentResult,
    render_surface,
    render_table,
)
from repro.pipeline.runner import (
    PipelineResult,
    Runner,
    StageFailure,
    StageOutcome,
    SweepResult,
    run_spec,
    run_sweep,
    run_union,
)
from repro.pipeline.spec import (
    ExperimentSpec,
    SpecError,
    StageSpec,
    SweepSpec,
    load_spec,
    spec_from_dict,
    stage,
)
from repro.pipeline.stages import (
    ANALYSES,
    STAGE_KINDS,
    StageContext,
    analysis,
)


def get_spec(name: str):
    """A spec argument: a path to a ``.toml``/``.json`` spec file, or a
    registered preset name (with close-match suggestions)."""
    import os

    from repro.pipeline.presets import get_spec as _get

    if os.path.sep in name or name.endswith((".toml", ".json")):
        return load_spec(name)
    return _get(name)


def available_specs() -> dict:
    """Every registered preset spec, keyed by name."""
    from repro.pipeline.presets import SPECS

    return dict(SPECS)


__all__ = [
    "ANALYSES",
    "BACKENDS",
    "STAGE_KINDS",
    "ExecutorBackend",
    "ExperimentResult",
    "ExperimentSpec",
    "LocalBackend",
    "PipelineResult",
    "QueueBackend",
    "Runner",
    "SpecError",
    "StageContext",
    "StageFailure",
    "StageOutcome",
    "StageSpec",
    "SweepResult",
    "SweepSpec",
    "analysis",
    "available_specs",
    "get_spec",
    "load_spec",
    "make_backend",
    "render_surface",
    "render_table",
    "run_spec",
    "run_sweep",
    "run_union",
    "spec_from_dict",
    "stage",
]
