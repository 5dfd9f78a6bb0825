"""Declarative pipeline specs: stages, experiments, sweeps, file loading.

An :class:`ExperimentSpec` is a named DAG of :class:`StageSpec` nodes
(workload → trace/dataset → train-or-reuse → predict/evaluate → report);
a :class:`SweepSpec` wraps one and a parameter grid, expanding to one
scenario spec per grid point.  Both are plain data — loadable from TOML
or JSON files (``load_spec``), buildable in Python (``stage(...)``), and
hashable content for the runner's per-stage artifact keys.

Validation is eager and specific: duplicate or unknown stage names,
unknown stage kinds and unknown parameters all fail at spec-build time
with close-match suggestions, not deep inside a run.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.errors import UnknownExperimentError


class SpecError(ValueError):
    """A pipeline spec that cannot be interpreted as written."""


@dataclass(frozen=True)
class StageSpec:
    """One node of the pipeline DAG.

    ``params`` are the stage kind's inputs (validated against the kind's
    declared parameter set); ``needs`` names upstream stages whose
    outputs this stage consumes and whose artifact keys feed this
    stage's content address.
    """

    name: str
    kind: str
    needs: tuple[str, ...] = ()
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "needs", tuple(self.needs))
        object.__setattr__(self, "params", dict(self.params))

    def with_params(self, **overrides) -> "StageSpec":
        return replace(self, params={**self.params, **overrides})


def stage(name: str, kind: str, needs: Sequence[str] = (), **params) -> StageSpec:
    """Shorthand constructor used by the preset specs."""
    return StageSpec(name=name, kind=kind, needs=tuple(needs), params=params)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, validated stage DAG plus presentation metadata."""

    name: str
    stages: tuple[StageSpec, ...]
    title: str = ""
    scale: str | None = None  # default scale; run-time argument wins
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        self.validate()

    # -- structure ---------------------------------------------------------
    def validate(self) -> None:
        from repro.pipeline.stages import STAGE_KINDS, validate_stage_params

        if not self.name:
            raise SpecError("spec needs a non-empty name")
        if not self.stages:
            raise SpecError(f"spec {self.name!r} declares no stages")
        seen: set[str] = set()
        for st in self.stages:
            if not st.name:
                raise SpecError(f"spec {self.name!r} has an unnamed stage")
            if st.name in seen:
                raise SpecError(
                    f"spec {self.name!r}: duplicate stage name {st.name!r}"
                )
            if st.kind not in STAGE_KINDS:
                raise UnknownExperimentError(
                    st.kind, STAGE_KINDS, kind="stage kind"
                )
            validate_stage_params(self.name, st)
            for need in st.needs:
                if need not in seen:
                    raise SpecError(
                        f"spec {self.name!r}: stage {st.name!r} needs "
                        f"{need!r}, which is not an earlier stage"
                    )
            seen.add(st.name)

    def stage(self, name: str) -> StageSpec:
        for st in self.stages:
            if st.name == name:
                return st
        raise UnknownExperimentError(
            name, [s.name for s in self.stages], kind="stage"
        )

    def override(self, overrides: Mapping) -> "ExperimentSpec":
        """New spec with ``{"stage.param": value}`` parameter overrides.

        A bare ``"scale"`` key overrides the spec's default scale; every
        other key must be ``<stage>.<param>`` for an existing stage.
        """
        scale = self.scale
        per_stage: dict[str, dict] = {}
        for key, value in overrides.items():
            if key == "scale":
                scale = value
                continue
            stage_name, dot, param = key.partition(".")
            if not dot:
                raise SpecError(
                    f"override key {key!r} must be 'scale' or '<stage>.<param>'"
                )
            self.stage(stage_name)  # raises with suggestions when unknown
            per_stage.setdefault(stage_name, {})[param] = value
        stages = tuple(
            st.with_params(**per_stage[st.name]) if st.name in per_stage else st
            for st in self.stages
        )
        return replace(self, stages=stages, scale=scale)


@dataclass(frozen=True)
class SweepSpec:
    """A base spec plus a parameter grid.

    ``matrix`` maps override keys (``"<stage>.<param>"`` or ``"scale"``)
    to value lists; :meth:`expand` emits the cartesian product as one
    scenario spec per grid point.  Shared upstream stages keep identical
    artifact keys across scenarios, so a sweep re-simulates and retrains
    only what each grid point actually changes.
    """

    base: ExperimentSpec
    matrix: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", {k: tuple(v) for k, v in dict(self.matrix).items()}
        )
        if not self.matrix:
            raise SpecError(
                f"sweep over {self.base.name!r} has an empty matrix; "
                "declare at least one [sweep.matrix] axis"
            )
        for axis, values in self.matrix.items():
            if not values:
                raise SpecError(
                    f"sweep axis {axis!r} has no values: the grid expands "
                    "to zero scenarios"
                )
            if axis != "scale":
                stage_name, dot, _ = axis.partition(".")
                if not dot:
                    raise SpecError(
                        f"sweep axis {axis!r} must be 'scale' or "
                        "'<stage>.<param>'"
                    )
                self.base.stage(stage_name)

    @property
    def name(self) -> str:
        return self.base.name

    def __len__(self) -> int:
        size = 1
        for values in self.matrix.values():
            size *= len(values)
        return size

    def expand(self) -> list[ExperimentSpec]:
        """One scenario spec per grid point, named ``base__k=v__k=v``."""
        axes = sorted(self.matrix)
        scenarios = []
        for point in itertools.product(*(self.matrix[a] for a in axes)):
            overrides = dict(zip(axes, point))
            label = "__".join(
                f"{a.split('.')[-1]}={v}" for a, v in zip(axes, point)
            )
            scenario = self.base.override(overrides)
            scenarios.append(
                replace(scenario, name=f"{self.base.name}__{label}")
            )
        return scenarios


# ---------------------------------------------------------------------------
# dict / file loading
# ---------------------------------------------------------------------------
_TOP_LEVEL_KEYS = {"name", "title", "scale", "description", "stage", "sweep"}


def spec_from_dict(data: Mapping, source: str = "<dict>"):
    """Build an :class:`ExperimentSpec` (or :class:`SweepSpec`) from
    parsed TOML/JSON data, rejecting unknown keys loudly."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{source}: spec must be a table/object, got "
                        f"{type(data).__name__}")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise SpecError(
            f"{source}: unknown top-level key(s) {sorted(unknown)}; "
            f"known: {sorted(_TOP_LEVEL_KEYS)}"
        )
    if "name" not in data:
        raise SpecError(f"{source}: spec needs a 'name'")
    raw_stages = data.get("stage")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise SpecError(
            f"{source}: spec needs at least one [[stage]] entry"
        )
    stages = []
    for i, entry in enumerate(raw_stages):
        if not isinstance(entry, Mapping):
            raise SpecError(f"{source}: stage #{i + 1} must be a table")
        entry = dict(entry)
        name = entry.pop("name", None)
        kind = entry.pop("kind", None)
        needs = entry.pop("needs", [])
        if not name or not kind:
            raise SpecError(
                f"{source}: stage #{i + 1} needs both 'name' and 'kind'"
            )
        if isinstance(needs, str):
            needs = [needs]
        stages.append(
            StageSpec(name=name, kind=kind, needs=tuple(needs), params=entry)
        )
    spec = ExperimentSpec(
        name=data["name"],
        title=data.get("title", ""),
        scale=data.get("scale"),
        description=data.get("description", ""),
        stages=tuple(stages),
    )
    sweep = data.get("sweep")
    if sweep is None:
        return spec
    if not isinstance(sweep, Mapping) or set(sweep) != {"matrix"}:
        raise SpecError(
            f"{source}: [sweep] must contain exactly a [sweep.matrix] table"
        )
    matrix = sweep["matrix"]
    if not isinstance(matrix, Mapping):
        raise SpecError(f"{source}: [sweep.matrix] must be a table")
    bad = [k for k, v in matrix.items() if not isinstance(v, (list, tuple))]
    if bad:
        raise SpecError(
            f"{source}: sweep axis(es) {sorted(bad)} must map to value lists"
        )
    return SweepSpec(base=spec, matrix={k: tuple(v) for k, v in matrix.items()})


def load_spec(path: str):
    """Load a spec from a ``.toml`` or ``.json`` file."""
    import tomllib  # only spec files need it; keeps CLI start-up lean

    if not os.path.exists(path):
        raise SpecError(f"no spec file at {path!r}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: malformed JSON: {exc}") from exc
    elif ext == ".toml":
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: malformed TOML: {exc}") from exc
    else:
        raise SpecError(
            f"{path}: unsupported spec extension {ext!r} (use .toml or .json)"
        )
    return spec_from_dict(data, source=path)
