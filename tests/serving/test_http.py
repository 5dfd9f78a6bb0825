"""Serving round-trip: start the HTTP service, POST, compare to Session."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.obs.metrics import parse_prometheus
from repro.serving import PredictionCluster, make_server
from repro.serving.http import _Handler

SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    session = Session(
        scale="smoke", cache_dir=str(tmp_path_factory.mktemp("http"))
    )
    session.train(benchmarks=BENCHMARKS, **SPEC)
    return session


def _serve(service):
    """Serve ``service`` on an ephemeral port; yields the base URL."""
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    service.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def endpoint(session):
    # the in-process server `repro serve` runs (no --workers)
    yield from _serve(PredictionCluster(workers=0, session=session))


@pytest.fixture(params=[0, 2], ids=["in-process", "2-workers"])
def any_endpoint(request, session):
    yield from _serve(PredictionCluster(workers=request.param, session=session))


def _get(url):
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz(endpoint):
    status, body = _get(f"{endpoint}/healthz")
    assert status == 200
    assert body["status"] == "ok" and body["scale"] == "smoke"
    assert body["models"] >= 1


def test_models_listing(endpoint, session):
    status, body = _get(f"{endpoint}/v1/models")
    assert status == 200
    assert [m["id"] for m in body["models"]] == [
        m["id"] for m in session.models()
    ]


def test_predict_roundtrip_matches_session(endpoint, session):
    status, body = _post(f"{endpoint}/v1/predict", {"benchmark": "505.mcf"})
    assert status == 200
    assert body["times"] == pytest.approx(session.predict("505.mcf"))
    assert body["artifact"] == session.resolve_artifact()


def test_batched_predict_roundtrip(endpoint, session):
    status, body = _post(f"{endpoint}/v1/predict", {
        "requests": [{"benchmark": name} for name in BENCHMARKS],
    })
    assert status == 200
    expected = session.predict_many(BENCHMARKS)
    assert len(body["results"]) == len(BENCHMARKS)
    for result in body["results"]:
        assert result["times"] == pytest.approx(
            expected[result["benchmark"]], rel=1e-6
        )


def test_unknown_benchmark_is_404(endpoint):
    status, body = _post(
        f"{endpoint}/v1/predict", {"benchmark": "not.a.benchmark"}
    )
    assert status == 404
    assert "unknown benchmark" in body["error"]


def test_unknown_config_is_400(endpoint):
    status, body = _post(
        f"{endpoint}/v1/predict",
        {"benchmark": "505.mcf", "config": "no-such-config"},
    )
    assert status == 400
    assert "unknown config 'no-such-config'" in body["error"]


def test_bad_payload_is_400(endpoint):
    status, body = _post(f"{endpoint}/v1/predict", {"nope": 1})
    assert status == 400
    assert "benchmark" in body["error"]


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_bad_content_length_is_400(endpoint, length):
    # the client keeps its end open: a server that read a negative
    # length as "until EOF" would never answer
    host, port = endpoint.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n".encode()
        )
        with sock.makefile("rb") as reply:
            status_line = reply.readline()
    assert status_line.split()[1] == b"400"


def test_stalled_body_is_cut_off(endpoint, monkeypatch):
    # a body shorter than its Content-Length must not hold a handler
    # thread: the read times out and the server closes the connection.
    # The shipped handler bounds every socket wait; the test lowers it.
    assert _Handler.timeout is not None and 0 < _Handler.timeout <= 60
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    host, port = endpoint.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: 100\r\n\r\n{{}}".encode()
        )
        with sock.makefile("rb") as reply:
            assert reply.read() == b""  # closed, not left hanging
    # the short timeout does not cut off a client that sends its body
    status, body = _post(f"{endpoint}/v1/predict", {"benchmark": "505.mcf"})
    assert status == 200 and body["benchmark"] == "505.mcf"


def test_unknown_endpoint_is_404(endpoint):
    status, body = _post(f"{endpoint}/v1/nope", {"benchmark": "505.mcf"})
    assert status == 404


# ---------------------------------------------------------------------------
# request ids + metrics exposition
# ---------------------------------------------------------------------------
def _get_raw(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _post_raw(url, payload, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def test_every_response_carries_a_request_id(endpoint):
    status, headers, _ = _get_raw(f"{endpoint}/healthz")
    assert status == 200
    assert len(headers["X-Request-Id"]) == 16  # minted at ingress

    status, headers, _ = _post_raw(
        f"{endpoint}/v1/predict", {"benchmark": "505.mcf"}
    )
    assert status == 200 and headers["X-Request-Id"]


def test_client_supplied_request_id_is_echoed(endpoint):
    status, headers, body = _post_raw(
        f"{endpoint}/v1/predict", {"nope": 1},
        headers={"X-Request-Id": "client-abc-123"},
    )
    assert status == 400
    assert headers["X-Request-Id"] == "client-abc-123"
    # error bodies carry the id too, so a log line can be correlated
    assert json.loads(body)["request_id"] == "client-abc-123"


def test_error_responses_carry_request_id_in_body(endpoint):
    status, headers, body = _post_raw(
        f"{endpoint}/v1/predict", {"benchmark": "not.a.benchmark"}
    )
    assert status == 404
    payload = json.loads(body)
    assert payload["request_id"] == headers["X-Request-Id"]


def test_metrics_endpoint_parses_with_core_series(endpoint):
    # the repeat hits the answer memo; a memo miss on the loaded model
    # (999.specrand here, or in an earlier test) hits the model LRU
    for name in ("505.mcf", "505.mcf", "999.specrand"):
        _post(f"{endpoint}/v1/predict", {"benchmark": name})
    status, headers, body = _get_raw(f"{endpoint}/v1/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    samples = parse_prometheus(body.decode())
    # in-process requests ride the dispatcher's lanes too
    assert samples["repro_dispatch_batch_size_count"] >= 1
    assert samples["repro_dispatch_latency_seconds_count"] >= 1
    for cache in ("answer", "model"):
        assert samples[
            f'repro_serving_cache_total{{cache="{cache}",outcome="hit"}}'
        ] >= 1
    assert any(k.startswith('repro_http_responses_total{status="200"}')
               for k in samples)
    # one process, one registry: no series is repeated under a worker label
    assert not any('worker="' in k for k in samples)


def test_stats_and_swap_work_in_process(endpoint, session):
    _post(f"{endpoint}/v1/predict", {"benchmark": "505.mcf"})
    status, stats = _get(f"{endpoint}/v1/stats")
    assert status == 200
    artifact = session.resolve_artifact()
    assert stats["routes"] == {"perfvec": artifact}
    assert stats["scale"] == "smoke" and stats["workers"]["0"]["alive"]
    metrics = stats["metrics"]
    assert metrics['repro_dispatch_events_total{kind="completed"}'] >= 1
    assert metrics['repro_serving_cache_entries{cache="model"}'] >= 1

    status, body = _post(f"{endpoint}/v1/swap", {"artifact": artifact})
    assert status == 200
    assert body["artifact"] == body["previous"] == artifact
    assert body["workers"] == 1
    status, body = _post(f"{endpoint}/v1/swap", {"artifact": "perfvec-nope"})
    assert status == 404


def test_stats_and_metrics_show_one_fan_out(any_endpoint):
    # /v1/stats' flat view and /v1/metrics' samples come from the same
    # per-process snapshots, worker processes included
    for name in ("505.mcf", "505.mcf", "999.specrand"):
        status, _ = _post(f"{any_endpoint}/v1/predict", {"benchmark": name})
        assert status == 200
    status, stats = _get(f"{any_endpoint}/v1/stats")
    assert status == 200
    status, _, body = _get_raw(f"{any_endpoint}/v1/metrics")
    assert status == 200
    samples = parse_prometheus(body.decode())
    flat = stats["metrics"]
    keys = ['repro_dispatch_events_total{kind="completed"}'] + [
        key for key in samples if key.startswith("repro_serving_cache_")
    ]
    assert {key: flat[key] for key in keys} == {
        key: samples[key] for key in keys
    }
    assert flat[keys[0]] >= 3
    # every worker process's series carry its label in both views
    labeled = {
        key.split('worker="')[1].split('"')[0]
        for key in keys if 'worker="' in key
    }
    assert labeled == set(stats["worker_pids"])
    # a histogram reads as its summary
    latency = flat["repro_dispatch_latency_seconds"]
    assert latency["count"] == samples["repro_dispatch_latency_seconds_count"]
    assert set(latency) >= {"p50", "p95", "p99"}
