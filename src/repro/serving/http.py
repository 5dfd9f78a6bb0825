"""Stdlib-only HTTP/JSON frontend over a prediction cluster.

The backend is a :class:`~repro.serving.cluster.PredictionCluster`:
worker processes, or with ``workers=0`` one in-process worker, behind
the same dispatcher — so every endpoint behaves the same in both modes.

Endpoints::

    GET  /healthz      -> {"status": "ok", "scale": ..., "models": N,
                           "workers": alive workers (in-process: 1)}
    GET  /v1/models    -> {"models": [manifest, ...]}
    GET  /v1/stats     -> dispatcher counters, routes, per-worker stats
    GET  /v1/metrics   -> Prometheus text (worker processes merged in)
    POST /v1/predict   -> single:  {"benchmark": "505.mcf", ...}
                          batched: {"requests": [{...}, {...}]}
    POST /v1/swap      -> {"artifact": "<id>", "family": optional}
                          (atomic model hot-swap)

Each POSTed prediction request accepts the fields of
:class:`~repro.serving.service.ServeRequest` (``benchmark`` required).
Responses mirror ``Session.predict``: ``{"times": {config: ticks}}``
per request, plus the artifact id that served it.

Error mapping: bad JSON / unknown fields / a ``Content-Length`` that is
not a length from 0 to ``MAX_BODY`` -> 400; unknown benchmark,
family or artifact -> 404; overload (queue full / timeout / no
workers — the :class:`~repro.serving.dispatch.ServingUnavailable`
family) -> 503 with a ``Retry-After`` header; everything else -> 500
with the exception text.  Worker processes map their errors with the
same :func:`~repro.serving.service.error_reply` table before shipping
them, so both serving modes answer a failure with the same status.
"""

from __future__ import annotations

import json
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro.obs.metrics import REGISTRY, render_prometheus
from repro.serving.dispatch import ServingUnavailable, WorkerError
from repro.serving.service import ServeRequest, error_reply

#: Largest accepted request body (bytes) — predict payloads are tiny.
MAX_BODY = 1 << 20

#: Header carrying the per-request id (client-supplied or assigned here).
REQUEST_ID_HEADER = "X-Request-Id"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/2"

    #: Assigned at ingress for every request; echoed on every reply.
    request_id: str = ""

    @property
    def service(self):
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _assign_request_id(self) -> str:
        """Ingress id: honour a client-supplied header, else mint one.

        Every response — success, 400, 503-with-Retry-After — echoes it
        back (header always, body on errors), so a client can correlate
        a shed request with server logs and traces.
        """
        supplied = (self.headers.get(REQUEST_ID_HEADER) or "").strip()
        self.request_id = supplied[:128] or uuid.uuid4().hex[:16]
        return self.request_id

    # -- plumbing ---------------------------------------------------------
    def _reply(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode()
        self._send_head(status, "application/json", len(body), headers)
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self._send_head(status, content_type, len(body), None)
        self.wfile.write(body)

    def _send_head(
        self, status: int, content_type: str, length: int,
        headers: dict | None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(length))
        if self.request_id:
            self.send_header(REQUEST_ID_HEADER, self.request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        REGISTRY.counter(
            "repro_http_responses_total",
            "HTTP responses by status code.",
            status=str(status),
        ).inc()

    def _error(self, status: int, message: str, **headers) -> None:
        payload = {"error": message}
        if self.request_id:
            payload["request_id"] = self.request_id
        self._reply(status, payload, headers=headers or None)

    def _fail(self, exc: Exception) -> None:
        """One exception -> one HTTP error reply (see module docstring)."""
        if isinstance(exc, ServingUnavailable):
            self._error(
                503, str(exc),
                **{"Retry-After": f"{exc.retry_after_s:g}"},
            )
        elif isinstance(exc, WorkerError):
            self._error(exc.status, str(exc))
        else:
            self._error(*error_reply(exc))

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length < 0:  # rfile.read(-1) would wait for the client to hang up
            raise ValueError("negative Content-Length")
        if length > MAX_BODY:
            raise ValueError("request body too large")
        return json.loads(self.rfile.read(length) or b"{}")

    # -- GET --------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._assign_request_id()
        if self.path == "/v1/metrics":
            self._get_metrics()
        elif self.path == "/healthz":
            self._reply(200, {
                "status": "ok",
                "scale": self.service.session.scale.name,
                "models": len(self.service.session.models()),
                "workers": len(self.service.dispatcher.alive_workers()),
            })
        elif self.path == "/v1/models":
            self._reply(200, {"models": self.service.session.models()})
        elif self.path == "/v1/stats":
            self._reply(200, self.service.stats())
        else:
            self._error(404, f"no such endpoint: {self.path}")

    def _get_metrics(self) -> None:
        """Prometheus text over this process plus every worker process."""
        snapshots = [({}, obs.metrics_snapshot())]
        try:
            for wid, snap in sorted(self.service.worker_metrics().items()):
                snapshots.append(({"worker": str(wid)}, snap))
        except Exception:  # noqa: BLE001 - scrape must not 500
            pass  # a dying worker shouldn't fail the whole scrape
        self._reply_text(
            200, render_prometheus(snapshots),
            "text/plain; version=0.0.4",
        )

    # -- POST -------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._assign_request_id()
        if self.path == "/v1/predict":
            self._post_predict()
        elif self.path == "/v1/swap":
            self._post_swap()
        else:
            self._error(404, f"no such endpoint: {self.path}")

    def _post_predict(self) -> None:
        try:
            payload = self._body()
            if "requests" in payload:
                requests = [
                    ServeRequest.from_dict(item)
                    for item in payload["requests"]
                ]
                batched = True
            else:
                requests = [ServeRequest.from_dict(payload)]
                batched = False
        except (ValueError, TypeError) as exc:
            self._error(400, f"bad request: {exc}")
            return
        started = time.perf_counter()
        error: Exception | None = None
        with obs.span(
            "http.predict", request_id=self.request_id,
            requests=len(requests),
        ) as sp:
            try:
                # the dispatcher's lanes batch concurrent clients' requests
                futures = [self.service.submit(r) for r in requests]
                results = [f.result() for f in futures]
            except Exception as exc:
                error = exc
                sp.set("error", f"{type(exc).__name__}: {exc}")
        if error is not None:
            # dump after the span closed so it is in the flight ring
            self._fail(error)
            obs.dump_flight(
                f"failed-{self.request_id}",
                extra={"request_id": self.request_id, "error": str(error)},
            )
            return
        elapsed = time.perf_counter() - started
        slow_after = obs.slow_threshold_s()
        if slow_after is not None and elapsed > slow_after:
            obs.dump_flight(
                f"slow-{self.request_id}",
                extra={"request_id": self.request_id,
                       "elapsed_s": elapsed},
            )
        if batched:
            self._reply(
                200, {"results": [r.to_dict() for r in results]}
            )
        else:
            self._reply(200, results[0].to_dict())

    def _post_swap(self) -> None:
        try:
            payload = self._body()
            artifact = payload["artifact"]
        except (ValueError, TypeError, KeyError) as exc:
            self._error(400, f"bad request: {exc}")
            return
        try:
            outcome = self.service.swap(artifact, family=payload.get("family"))
        except Exception as exc:
            self._fail(exc)
            return
        self._reply(200, outcome)


def make_server(
    service, host: str = "127.0.0.1", port: int = 0, verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build (and bind) the HTTP server; ``port=0`` picks a free port.

    ``service`` is a :class:`~repro.serving.cluster.PredictionCluster`
    (``workers=0`` serves in-process).  The caller runs
    ``serve_forever()`` (or spins it in a thread — the round-trip tests
    do) and ``shutdown()`` when done.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    service.start()
    return server


def run_server(
    service, host: str = "127.0.0.1", port: int = 8080, verbose: bool = True,
) -> None:
    """Blocking serve loop (the ``repro serve`` entry point)."""
    server = make_server(service, host, port, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
