"""Process-local metrics registry: counters, gauges, bucketed histograms.

One global :data:`REGISTRY` absorbs the counters that used to live as
ad-hoc dicts scattered across the stack — dispatcher shed/hedge counts,
lane batch sizes and request latency, serving, feature and
stage-store cache hits/misses/corruption, queue lease steals and
expiries.  Everything is recorded unconditionally (a counter bump is a
lock + dict update — the same cost the old ad-hoc dicts paid), while
the *expensive* observability surfaces — span logging, flight dumps —
are gated by ``REPRO_OBS`` in :mod:`repro.obs.trace`.

Exposed three ways:

* ``GET /v1/metrics`` on the serving HTTP layer renders the registry in
  Prometheus text format (a cluster frontend merges every worker's
  snapshot under a ``worker`` label);
* a ``metrics`` block in benchmark reports (``BENCH_*.json``);
* :func:`repro.obs.metrics_snapshot` for tests and tooling.

Histograms use fixed bucket bounds (no per-observation allocation) and
read out p50/p95/p99 by linear interpolation inside the owning bucket —
coarse by construction, but stable, mergeable across processes, and
cheap enough for per-request recording.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default histogram bounds (seconds): 100µs .. 60s, roughly log-spaced.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Bounds for size-like histograms (batch sizes, span counts).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count for one labeled series."""

    __slots__ = ("_registry", "_name", "_labels", "value")

    def __init__(self, registry, name, labels):
        self._registry = registry
        self._name = name
        self._labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._registry._lock:
            self.value += amount


class Gauge:
    """A point-in-time value for one labeled series."""

    __slots__ = ("_registry", "_name", "_labels", "value")

    def __init__(self, registry, name, labels):
        self._registry = registry
        self._name = name
        self._labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._registry._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._registry._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-bucket histogram with percentile readout.

    ``bounds`` are upper bucket edges; an implicit ``+Inf`` bucket
    catches the tail.  ``counts[i]`` is the number of observations with
    ``value <= bounds[i]`` (cumulative at render time, per-bucket here).
    """

    __slots__ = ("_registry", "_name", "_labels", "bounds", "counts",
                 "total", "count")

    def __init__(self, registry, name, labels, bounds):
        self._registry = registry
        self._name = name
        self._labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._registry._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0..100) from the buckets."""
        with self._registry._lock:
            counts = list(self.counts)
            count = self.count
        if count == 0:
            return 0.0
        rank = max(1.0, q / 100.0 * count)
        seen = 0
        for i, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = (self.bounds[i] if i < len(self.bounds)
                      else max(self.bounds[-1], lo) * 2 or 1.0)
                frac = (rank - seen) / bucket_count
                return lo + frac * (hi - lo)
            seen += bucket_count
        return self.bounds[-1]

    def summary(self) -> dict:
        with self._registry._lock:
            count, total = self.count, self.total
        return {
            "count": count,
            "sum": round(total, 9),
            "mean": round(total / count, 9) if count else 0.0,
            "p50": round(self.percentile(50), 9),
            "p95": round(self.percentile(95), 9),
            "p99": round(self.percentile(99), 9),
        }


class MetricsRegistry:
    """Named metric families, each holding labeled series."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, dict] = {}

    # -- get-or-create ----------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str) -> dict:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = {
                "kind": kind, "help": help_text, "series": {},
            }
        elif family["kind"] != kind:
            raise ValueError(
                f"metric {name!r} is a {family['kind']}, not a {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        with self._lock:
            family = self._family(name, "counter", help)
            key = _label_key(labels)
            series = family["series"].get(key)
            if series is None:
                series = family["series"][key] = Counter(self, name, labels)
            return series

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        with self._lock:
            family = self._family(name, "gauge", help)
            key = _label_key(labels)
            series = family["series"].get(key)
            if series is None:
                series = family["series"][key] = Gauge(self, name, labels)
            return series

    def histogram(
        self, name: str, help: str = "",
        buckets: tuple = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        with self._lock:
            family = self._family(name, "histogram", help)
            key = _label_key(labels)
            series = family["series"].get(key)
            if series is None:
                series = family["series"][key] = Histogram(
                    self, name, labels, buckets
                )
            return series

    # -- export -----------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready copy of every family and series (mergeable)."""
        out: dict = {}
        with self._lock:  # RLock: summary() re-enters safely
            for name, family in sorted(self._families.items()):
                rows = []
                for key, series in family["series"].items():
                    row: dict = {"labels": dict(key)}
                    if family["kind"] == "histogram":
                        row["bounds"] = list(series.bounds)
                        row["counts"] = list(series.counts)
                        row["sum"] = series.total
                        row["count"] = series.count
                        row["summary"] = series.summary()
                    else:
                        row["value"] = series.value
                    rows.append(row)
                out[name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "series": rows,
                }
        return out

    def reset(self) -> None:
        with self._lock:
            self._families.clear()


def _fmt_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{str(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(snapshots) -> str:
    """Prometheus text exposition over one or more snapshots.

    ``snapshots`` is an iterable of ``(extra_labels, snapshot)`` pairs —
    a cluster frontend passes its own snapshot with no extra labels plus
    each worker's snapshot under ``{"worker": id}``, so one scrape sees
    the whole cluster.
    """
    families: dict[str, dict] = {}
    for extra, snap in snapshots:
        for name, family in snap.items():
            merged = families.setdefault(
                name, {"kind": family["kind"], "help": family["help"],
                       "rows": []},
            )
            for row in family["series"]:
                labels = {**row["labels"], **(extra or {})}
                merged["rows"].append({**row, "labels": labels})
    lines: list[str] = []
    for name, family in sorted(families.items()):
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for row in family["rows"]:
            labels = row["labels"]
            if family["kind"] == "histogram":
                cumulative = 0
                bounds = list(row["bounds"]) + [float("inf")]
                for bound, count in zip(bounds, row["counts"]):
                    cumulative += count
                    le = "+Inf" if bound == float("inf") else f"{bound:g}"
                    lines.append(
                        f"{name}_bucket"
                        f"{_fmt_labels({**labels, 'le': le})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} "
                    f"{repr(float(row['sum']))}"
                )
                lines.append(
                    f"{name}_count{_fmt_labels(labels)} {row['count']}"
                )
            else:
                lines.append(
                    f"{name}{_fmt_labels(labels)} "
                    f"{_fmt_value(row['value'])}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal parser for the exposition format (tests and CI gates).

    Returns ``{"name{label=\"v\"}": value}`` for every sample line.
    Raises ``ValueError`` on a malformed non-comment line.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
        except ValueError as exc:
            raise ValueError(f"bad metrics line: {line!r}") from exc
    return samples


#: The process-wide registry (see :mod:`repro.obs`).
REGISTRY = MetricsRegistry()
