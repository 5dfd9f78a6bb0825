"""Serving round-trip: start the HTTP service, POST, compare to Session."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.serving import PredictionCluster, make_server

SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    session = Session(
        scale="smoke", cache_dir=str(tmp_path_factory.mktemp("http"))
    )
    session.train(benchmarks=BENCHMARKS, **SPEC)
    return session


@pytest.fixture(scope="module")
def endpoint(session):
    # the in-process server `repro serve` runs (no --workers)
    service = PredictionCluster(workers=0, session=session)
    server = make_server(service, port=0)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    service.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


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
    from repro.obs.metrics import parse_prometheus

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
    assert stats["completed"] >= 1 and stats["workers"]["0"]["alive"]
    (worker,) = stats["worker_stats"].values()
    assert worker["scale"] == "smoke" and worker["models_cached"] >= 1

    status, body = _post(f"{endpoint}/v1/swap", {"artifact": artifact})
    assert status == 200
    assert body["artifact"] == body["previous"] == artifact
    assert body["workers"] == 1
    status, body = _post(f"{endpoint}/v1/swap", {"artifact": "perfvec-nope"})
    assert status == 404
