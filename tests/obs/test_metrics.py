"""Metrics registry: counters/gauges/histograms, Prometheus round-trip."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    flatten_metrics,
    parse_prometheus,
    render_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_identity_and_labels(registry):
    a = registry.counter("hits_total", "Hits.", kind="fresh")
    b = registry.counter("hits_total", kind="fresh")
    c = registry.counter("hits_total", kind="steal")
    assert a is b and a is not c
    a.inc()
    a.inc(2)
    c.inc()
    snap = registry.snapshot()
    rows = {tuple(sorted(r["labels"].items())): r["value"]
            for r in snap["hits_total"]["series"]}
    assert rows[(("kind", "fresh"),)] == 3
    assert rows[(("kind", "steal"),)] == 1
    assert snap["hits_total"]["kind"] == "counter"
    assert snap["hits_total"]["help"] == "Hits."


def test_gauge_set_inc_dec(registry):
    gauge = registry.gauge("depth")
    gauge.set(5)
    gauge.inc()
    gauge.inc(-2)
    assert gauge.value == 4.0


def test_kind_collision_rejected(registry):
    registry.counter("thing")
    with pytest.raises(ValueError, match="is a counter"):
        registry.gauge("thing")


def test_histogram_percentiles_and_summary(registry):
    hist = registry.histogram("latency_seconds", buckets=DEFAULT_BUCKETS)
    for value in (0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002,
                  0.002, 0.02, 0.4):
        hist.observe(value)
    summary = hist.summary()
    assert summary["count"] == 10
    assert summary["sum"] == pytest.approx(0.436)
    # 8 of 10 observations live in the (0.001, 0.0025] bucket
    assert 0.001 < summary["p50"] <= 0.0025
    assert summary["p95"] > summary["p50"]
    assert summary["p99"] >= summary["p95"]


def test_histogram_empty_summary(registry):
    hist = registry.histogram("empty_seconds")
    assert hist.summary() == {
        "count": 0, "sum": 0.0, "mean": 0.0,
        "p50": 0.0, "p95": 0.0, "p99": 0.0,
    }


def test_size_buckets_catch_tail(registry):
    hist = registry.histogram("batch", buckets=SIZE_BUCKETS)
    hist.observe(10_000)  # beyond the last bound -> +Inf bucket
    assert hist.counts[-1] == 1
    assert hist.percentile(50) >= SIZE_BUCKETS[-1]


def test_prometheus_render_parse_roundtrip(registry):
    registry.counter("events_total", "Events.", kind="x").inc(7)
    registry.gauge("pending", "Pending.").set(3)
    hist = registry.histogram("dur_seconds", "Durations.",
                              buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)

    text = render_prometheus([({}, registry.snapshot())])
    assert "# TYPE events_total counter" in text
    assert "# HELP dur_seconds Durations." in text
    samples = parse_prometheus(text)
    assert samples['events_total{kind="x"}'] == 7
    assert samples["pending"] == 3
    # bucket counts are cumulative, +Inf == _count
    assert samples['dur_seconds_bucket{le="0.1"}'] == 1
    assert samples['dur_seconds_bucket{le="1"}'] == 2
    assert samples['dur_seconds_bucket{le="+Inf"}'] == 3
    assert samples["dur_seconds_count"] == 3
    assert samples["dur_seconds_sum"] == pytest.approx(5.55)


def test_prometheus_merges_worker_snapshots():
    frontend, worker = MetricsRegistry(), MetricsRegistry()
    frontend.counter("reqs_total").inc(2)
    worker.counter("reqs_total").inc(5)
    text = render_prometheus([
        ({}, frontend.snapshot()),
        ({"worker": "0"}, worker.snapshot()),
    ])
    samples = parse_prometheus(text)
    assert samples["reqs_total"] == 2
    assert samples['reqs_total{worker="0"}'] == 5


def test_flat_view_matches_the_rendered_samples():
    frontend, worker = MetricsRegistry(), MetricsRegistry()
    frontend.counter("reqs_total", kind="ok").inc(2)
    frontend.histogram("dur_seconds", buckets=(0.1, 1.0)).observe(0.5)
    worker.counter("reqs_total", kind="ok").inc(5)
    worker.gauge("held").set(3)
    pairs = [({}, frontend.snapshot()), ({"worker": "0"}, worker.snapshot())]
    flat = flatten_metrics(pairs)
    samples = parse_prometheus(render_prometheus(pairs))
    # counters and gauges: the same keys and values as the sample lines
    key = 'reqs_total{kind="ok"}'
    assert flat[key] == samples[key] == 2
    assert flat['reqs_total{kind="ok",worker="0"}'] == 5
    assert flat['held{worker="0"}'] == samples['held{worker="0"}'] == 3
    # a histogram reads as its summary, not its buckets
    summary = flat["dur_seconds"]
    assert summary["count"] == samples["dur_seconds_count"] == 1
    assert 0.1 <= summary["p50"] <= 1.0
    assert not any(key.startswith("dur_seconds_") for key in flat)


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="bad metrics line"):
        parse_prometheus("just-a-name-no-value")


def test_reset_clears_families(registry):
    registry.counter("gone_total").inc()
    registry.reset()
    assert registry.snapshot() == {}
