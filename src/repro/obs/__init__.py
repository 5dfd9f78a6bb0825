"""``repro.obs`` — tracing, metrics, and profiling for the whole stack.

The first layer that sees every other layer: serving requests, cluster
workers, pipeline stages, queue claims and cache lookups all report
here.  Three pieces:

* :mod:`repro.obs.trace` — structured spans with cross-process
  propagation and an append-only JSONL log (``REPRO_OBS``-gated; the
  disabled path is a single env lookup returning a shared no-op);
* :mod:`repro.obs.metrics` — the process-wide :data:`REGISTRY` of
  counters/gauges/histograms, always on, exported as Prometheus text
  via ``GET /v1/metrics`` and as a ``metrics`` block in benchmarks;
* :mod:`repro.obs.viewer` — ``repro obs trace|top|list`` renderers
  over the on-disk span log.

Typical instrumentation::

    from repro import obs

    with obs.span("stage.run", stage=name) as sp:
        ...
        sp.set("rows", len(out))
    obs.REGISTRY.counter("repro_stage_total", stage=name).inc()
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    SIZE_BUCKETS,
    MetricsRegistry,
    flatten_metrics,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.trace import (
    MESSAGE_KEY,
    NOOP_SPAN,
    OBS_ENV,
    SLOW_MS_ENV,
    TRACE_ENV,
    Span,
    TraceContext,
    ambient_context,
    current_context,
    current_span,
    dump_flight,
    enabled,
    extract_message,
    flight_snapshot,
    inject_env,
    inject_message,
    reset_for_tests,
    set_enabled,
    slow_threshold_s,
    span,
)
from repro.obs.viewer import (
    SpanRecord,
    build_tree,
    group_traces,
    hot_paths,
    list_traces,
    load_spans,
    render_top,
    render_trace,
)


def metrics_snapshot() -> dict:
    """This process's registry, JSON-ready (tests, stats endpoints)."""
    return REGISTRY.snapshot()


__all__ = [
    "DEFAULT_BUCKETS",
    "MESSAGE_KEY",
    "MetricsRegistry",
    "NOOP_SPAN",
    "OBS_ENV",
    "REGISTRY",
    "SIZE_BUCKETS",
    "SLOW_MS_ENV",
    "Span",
    "SpanRecord",
    "TRACE_ENV",
    "TraceContext",
    "ambient_context",
    "build_tree",
    "current_context",
    "current_span",
    "dump_flight",
    "enabled",
    "extract_message",
    "flatten_metrics",
    "flight_snapshot",
    "group_traces",
    "hot_paths",
    "inject_env",
    "inject_message",
    "list_traces",
    "load_spans",
    "metrics_snapshot",
    "parse_prometheus",
    "render_prometheus",
    "render_top",
    "render_trace",
    "reset_for_tests",
    "set_enabled",
    "slow_threshold_s",
    "span",
]
