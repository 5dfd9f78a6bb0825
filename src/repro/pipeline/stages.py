"""Built-in stage kinds and the analysis-function registry.

A stage kind is a typed unit of pipeline work: it declares the parameter
names it accepts (unknown parameters are a spec error with suggestions),
a version (bump to invalidate cached artifacts when semantics change)
and a run function ``(ctx, stage, inputs) -> payload``.

Stage payloads are **JSON-serializable references, not heavyweight
objects**: a ``dataset`` stage materializes trace simulations into the
npz dataset cache and returns the dataset's fingerprint; a ``train``
stage trains or reuses a model through :meth:`repro.api.Session.train`
(the one train-or-reuse path) and returns its
:class:`~repro.models.store.ModelStore` artifact id.  Downstream stages
re-open those stores — an analysis loads its model with
:func:`upstream_model`, an evaluate or predict stage serves the artifact
:func:`upstream_train` names — which makes every stage restartable,
parallelizable across processes and resumable from its on-disk artifact
alone.

Built-in kinds::

    dataset   warm the (benchmarks x configs) simulation cache
    train     train-or-reuse a model artifact (Session.train)
    evaluate  stored-model error vs simulated ground truth
    predict   batched feature-stream serving through a stored model
    analysis  a registered analysis function (the bespoke figure logic)
    report    assemble the ExperimentResult payload (and optionally save)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.errors import UnknownExperimentError

if TYPE_CHECKING:  # import cycle: experiments.common re-exports our report
    from repro.experiments.common import ScaleConfig


@dataclass(frozen=True)
class StageContext:
    """Everything a stage run needs besides its params and inputs.

    Picklable by construction so stages can execute in worker processes.
    ``jobs`` is the simulation fan-out *within* this stage (the runner
    sets it to 1 when stages themselves run concurrently).
    """

    scale: ScaleConfig
    spec_name: str
    cache_dir: str | None = None
    results_dir: str | None = None
    jobs: int = 1


@dataclass(frozen=True)
class StageKind:
    """A registered stage type: allowed params + executable behaviour."""

    kind: str
    run: Callable[[StageContext, "StageSpec", dict], dict]  # noqa: F821
    params: frozenset = frozenset()
    required: frozenset = frozenset()
    #: free-form extras allowed (analysis fns take arbitrary params)
    open_params: bool = False
    version: int = 1


STAGE_KINDS: dict[str, StageKind] = {}

#: Registered analysis callables: name -> fn(ctx, params, inputs) -> dict.
ANALYSES: dict[str, Callable] = {}


def register_kind(kind: StageKind) -> StageKind:
    STAGE_KINDS[kind.kind] = kind
    return kind


def analysis(name: str):
    """Decorator registering a pipeline analysis function under ``name``."""

    def register(fn: Callable) -> Callable:
        ANALYSES[name] = fn
        return fn

    return register


def analysis_fingerprint(name: str) -> str:
    """Content hash of a registered analysis function's source.

    Part of every analysis stage's artifact key, so editing an analysis
    function automatically invalidates its cached payloads — no manual
    version bump, no ``--force`` needed after a code change.  (Edits to
    helpers the function *calls* are not seen; force those runs.)
    """
    import hashlib
    import inspect

    fn = ANALYSES.get(name)
    if fn is None:
        import repro.pipeline.presets  # noqa: F401 — registers presets

        fn = ANALYSES.get(name)
    if fn is None:
        # let the stage execution raise the suggestion-bearing error
        return "unregistered"
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = fn.__code__.co_code.hex()
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def validate_stage_params(spec_name: str, stage) -> None:
    """Reject unknown/missing stage parameters at spec-build time."""
    kind = STAGE_KINDS[stage.kind]
    missing = kind.required - set(stage.params)
    if missing:
        raise_spec_error(
            f"spec {spec_name!r}: stage {stage.name!r} ({stage.kind}) is "
            f"missing required parameter(s) {sorted(missing)}"
        )
    if not kind.open_params:
        unknown = set(stage.params) - kind.params
        if unknown:
            raise_spec_error(
                f"spec {spec_name!r}: stage {stage.name!r} ({stage.kind}) "
                f"got unknown parameter(s) {sorted(unknown)}; "
                f"allowed: {sorted(kind.params)}"
            )


def raise_spec_error(message: str) -> None:
    from repro.pipeline.spec import SpecError

    raise SpecError(message)


# ---------------------------------------------------------------------------
# shared resolution helpers
# ---------------------------------------------------------------------------
#: Named benchmark splits usable wherever a spec takes ``benchmarks``.
BENCHMARK_ALIASES = ("train", "test", "all", "updated-train", "updated-test")


def resolve_benchmarks(value, isa: str | None = None) -> tuple[str, ...]:
    """A spec's ``benchmarks`` value (alias or explicit list) to names.

    With ``isa``, the ``train``/``test``/``all`` aliases resolve against
    that frontend's suite instead of the mini-ASM workloads.
    """
    from repro.frontends import DEFAULT_FRONTEND, get_frontend
    from repro.workloads import ALL_BENCHMARKS, TEST_BENCHMARKS, TRAIN_BENCHMARKS

    if isinstance(value, str):
        if isa is not None and isa != DEFAULT_FRONTEND:
            frontend = get_frontend(isa)
            if value == "train":
                return tuple(frontend.train_benchmarks())
            if value == "test":
                return tuple(frontend.test_benchmarks())
            if value == "all":
                return tuple(frontend.benchmarks())
            raise UnknownExperimentError(
                value, ("train", "test", "all"),
                kind=f"benchmark alias for isa {isa!r}",
            )
        if value == "train":
            return tuple(TRAIN_BENCHMARKS)
        if value == "test":
            return tuple(TEST_BENCHMARKS)
        if value == "all":
            return tuple(ALL_BENCHMARKS)
        if value in ("updated-train", "updated-test"):
            from repro.experiments.fig4_retrain_lbm import (
                UPDATED_TEST,
                UPDATED_TRAIN,
            )

            return tuple(UPDATED_TRAIN if value == "updated-train" else UPDATED_TEST)
        raise UnknownExperimentError(
            value, BENCHMARK_ALIASES, kind="benchmark alias"
        )
    return tuple(value)


def resolve_configs(ctx: StageContext, stage) -> list:
    """The stage's microarchitecture list (``seen``/``unseen`` source)."""
    from repro.experiments.common import seen_configs, unseen_configs

    source = stage.params.get("configs", "seen")
    if source == "seen":
        return seen_configs(ctx.scale)
    if source == "unseen":
        return unseen_configs(ctx.scale, int(stage.params.get("count", 10)))
    raise UnknownExperimentError(
        source, ("seen", "unseen"), kind="config source"
    )


def upstream_train(inputs: Mapping, need: str | None = None) -> dict:
    """The payload of upstream ``train`` stage ``need``:
    ``{"artifact", "family", "isa", "reused"}``.

    ``need=None`` takes the first train stage among ``inputs`` (the model
    an evaluate or predict stage serves).  A missing or non-train
    upstream is a :class:`~repro.pipeline.spec.SpecError` naming it.
    """
    if need is None:
        need = next((n for n, p in inputs.items() if _is_train(p)), None)
        if need is None:
            raise_spec_error(
                f"no upstream 'train' stage among needs {sorted(inputs)}; "
                "list the stage that trains the model"
            )
    if need not in inputs:
        raise_spec_error(
            f"upstream train stage {need!r} is not among needs "
            f"{sorted(inputs)}"
        )
    if not _is_train(inputs[need]):
        raise_spec_error(
            f"upstream stage {need!r} is not a 'train' stage: it names no "
            "model artifact"
        )
    return inputs[need]


def _is_train(payload) -> bool:
    return bool(payload) and {"artifact", "family"} <= payload.keys()


def upstream_model(ctx: StageContext, inputs: Mapping, need: str):
    """The model upstream train stage ``need`` stored, loaded from the
    run's :class:`~repro.models.store.ModelStore`."""
    from repro.cache import model_store_dir
    from repro.models import ModelStore

    artifact = upstream_train(inputs, need)["artifact"]
    return ModelStore(model_store_dir(ctx.cache_dir)).load(artifact)


# ---------------------------------------------------------------------------
# built-in kinds
# ---------------------------------------------------------------------------
def _stage_isa(stage) -> str | None:
    """The stage's ``isa`` parameter (``None`` means the default frontend)."""
    return stage.params.get("isa")


def _session(ctx: StageContext, stage):
    """A :class:`~repro.api.Session` at the stage's scale, cache root,
    fan-out and frontend."""
    from repro.api import Session
    from repro.frontends import DEFAULT_FRONTEND

    return Session(
        scale=ctx.scale, cache_dir=ctx.cache_dir, jobs=ctx.jobs,
        frontend=_stage_isa(stage) or DEFAULT_FRONTEND,
    )


def _run_dataset(ctx: StageContext, stage, inputs) -> dict:
    from repro.experiments.common import benchmark_dataset

    isa = _stage_isa(stage)
    benchmarks = resolve_benchmarks(stage.params["benchmarks"], isa=isa)
    configs = resolve_configs(ctx, stage)
    instructions = stage.params.get("instructions")
    ds = benchmark_dataset(
        ctx.scale, benchmarks, configs=configs, instructions=instructions,
        isa=isa, root=ctx.cache_dir,
    )
    payload = {
        "benchmarks": list(benchmarks),
        "config_names": list(ds.config_names),
        "rows": len(ds),
        "fingerprint": ds.fingerprint(),
    }
    if isa is not None:
        payload["isa"] = ds.isa
    return payload


#: Train-stage params that configure the model (each must be one of the
#: family's ``spec_fields``); the others select its data.
MODEL_PARAMS = ("arch", "epochs")


def _run_train(ctx: StageContext, stage, inputs) -> dict:
    from repro.models.registry import get_family

    family = stage.params.get("family", "perfvec")
    overrides = {
        name: stage.params[name] for name in MODEL_PARAMS
        if stage.params.get(name) is not None
    }
    fields = get_family(family).spec_fields
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        raise_spec_error(
            f"stage {stage.name!r} (train): family {family!r} has no "
            f"parameter(s) {unknown}; its spec fields are {list(fields)}"
        )
    session = _session(ctx, stage)
    result = session.train(
        family=family,
        benchmarks=resolve_benchmarks(
            stage.params["benchmarks"], isa=_stage_isa(stage)
        ),
        evaluate=False, **overrides,
    )
    return {"artifact": result.artifact_id, "family": family,
            "isa": session.frontend, "reused": result.reused}


def _run_evaluate(ctx: StageContext, stage, inputs) -> dict:
    benchmarks = resolve_benchmarks(
        stage.params["benchmarks"], isa=_stage_isa(stage)
    )
    artifact = upstream_train(inputs)["artifact"]
    errors = _session(ctx, stage).evaluate(benchmarks, artifact=artifact)
    rows = [
        [name, f"{s.mean:.1%}", f"{s.std:.1%}", f"{s.min:.1%}", f"{s.max:.1%}"]
        for name, s in errors.items()
    ]
    means = [s.mean for s in errors.values()]
    return {
        "title": f"Stored-model error ({len(benchmarks)} benchmarks)",
        "headers": ["benchmark", "mean", "std", "min", "max"],
        "rows": rows,
        "metrics": {"avg_error": sum(means) / len(means)},
        "artifact": artifact,
    }


def _run_predict(ctx: StageContext, stage, inputs) -> dict:
    benchmarks = resolve_benchmarks(
        stage.params["benchmarks"], isa=_stage_isa(stage)
    )
    artifact = upstream_train(inputs)["artifact"]
    times = _session(ctx, stage).predict_many(benchmarks, artifact=artifact)
    rows = [
        [name, len(per_config), float(min(per_config.values())),
         float(max(per_config.values()))]
        for name, per_config in times.items()
    ]
    return {
        "title": f"Predicted times ({len(benchmarks)} benchmarks)",
        "headers": ["benchmark", "configs", "min ticks", "max ticks"],
        "rows": rows,
        "metrics": {},
        "times": {k: dict(v) for k, v in times.items()},
        "artifact": artifact,
    }


def _run_analysis(ctx: StageContext, stage, inputs) -> dict:
    name = stage.params["fn"]
    fn = ANALYSES.get(name)
    if fn is None:
        # specs loaded from files reference preset analyses by name
        # without importing the defining module; pull them in once
        import repro.pipeline.presets  # noqa: F401

        fn = ANALYSES.get(name)
    if fn is None:
        raise UnknownExperimentError(name, ANALYSES, kind="analysis")
    params = {k: v for k, v in stage.params.items() if k != "fn"}
    out = fn(ctx, params, inputs)
    if "rows" not in out:
        raise_spec_error(
            f"analysis {name!r} returned no 'rows' (got {sorted(out)})"
        )
    return out


def _run_report(ctx: StageContext, stage, inputs) -> dict:
    from repro.pipeline.report import ExperimentResult

    source = None
    for need in stage.needs:
        payload = inputs.get(need) or {}
        if "rows" in payload:
            source = payload
            break
    if source is None:
        raise_spec_error(
            f"report stage {stage.name!r} needs an upstream stage that "
            "produced rows (analysis/evaluate/predict)"
        )
    result = ExperimentResult(
        experiment=stage.params.get("experiment", ctx.spec_name),
        title=stage.params.get("title") or source.get("title", ctx.spec_name),
        scale=ctx.scale.name,
        headers=list(source.get("headers", [])),
        rows=list(source["rows"]),
        notes=list(source.get("notes", [])),
        metrics=dict(source.get("metrics", {})),
    )
    return result.payload()


register_kind(StageKind(
    kind="dataset", run=_run_dataset,
    params=frozenset({"benchmarks", "configs", "count", "instructions",
                      "isa"}),
    required=frozenset({"benchmarks"}),
))
register_kind(StageKind(
    kind="train", run=_run_train,
    params=frozenset({"benchmarks", "family", "isa", *MODEL_PARAMS}),
    required=frozenset({"benchmarks"}),
    # 2: arch/epochs reach every family; payloads carry isa and reused
    version=2,
))
register_kind(StageKind(
    kind="evaluate", run=_run_evaluate,
    params=frozenset({"benchmarks", "isa"}),
    required=frozenset({"benchmarks"}),
))
register_kind(StageKind(
    kind="predict", run=_run_predict,
    params=frozenset({"benchmarks", "isa"}),
    required=frozenset({"benchmarks"}),
))
register_kind(StageKind(
    kind="analysis", run=_run_analysis,
    params=frozenset({"fn"}),
    required=frozenset({"fn"}),
    open_params=True,
))
register_kind(StageKind(
    kind="report", run=_run_report,
    params=frozenset({"experiment", "title"}),
))
