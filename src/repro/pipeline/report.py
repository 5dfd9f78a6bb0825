"""Result container and plain-text rendering for experiments/pipelines.

:class:`ExperimentResult` is the uniform terminal payload of every
pipeline: the ``report`` stage assembles one, the stage-artifact store
persists its JSON form, and a fully cached re-run reconstructs it with
:meth:`ExperimentResult.from_payload` without executing anything.
(Previously lived in ``repro.experiments.common``, which still re-exports
everything here for compatibility.)
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.cache import publish, results_dir as resolve_results_dir


@dataclass
class ExperimentResult:
    """Uniform result record: printable and JSON-serializable."""

    experiment: str
    title: str
    scale: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        out = [f"== {self.experiment}: {self.title} (scale={self.scale}) =="]
        out.append(render_table(self.headers, self.rows))
        for key, value in sorted(self.metrics.items()):
            out.append(f"  {key} = {value:.4g}")
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)

    def payload(self) -> dict:
        """JSON-serializable dict (inverse of :meth:`from_payload`)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentResult":
        return cls(**{k: payload[k] for k in (
            "experiment", "title", "scale", "headers", "rows", "notes",
            "metrics",
        )})

    def save(self, results_dir: str | None = None) -> str:
        """Publish the result JSON; default dir follows the cache root
        (``REPRO_RESULTS_DIR`` / ``--results-dir`` / ``<root>/results``)."""
        path = os.path.join(
            resolve_results_dir(results_dir),
            f"{self.experiment}_{self.scale}.json",
        )
        text = json.dumps(self.payload(), indent=2, default=str)
        return publish(path, lambda fh: fh.write(text.encode()))


def render_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table with per-column widths."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_surface(
    surface: np.ndarray, row_labels: list[str], col_labels: list[str],
    title: str,
) -> str:
    """6x6-style numeric heatmap (Fig. 7's objective surfaces) with the
    minimum cell marked."""
    surface = np.asarray(surface, dtype=np.float64)
    best = np.unravel_index(surface.argmin(), surface.shape)
    lines = [title]
    header = " " * 8 + "  ".join(f"{c:>8s}" for c in col_labels)
    lines.append(header)
    for i, label in enumerate(row_labels):
        cells = []
        for j in range(surface.shape[1]):
            mark = "*" if (i, j) == best else " "
            cells.append(f"{surface[i, j]:8.3g}{mark}")
        lines.append(f"{label:>6s}  " + " ".join(cells))
    return "\n".join(lines)
