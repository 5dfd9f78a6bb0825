"""Structured tracing: nested spans, cross-process propagation, JSONL log.

A *span* is one named, timed region of work.  Spans nest through a
contextvar (safe across threads — each serving thread sees only its own
stack), carry free-form attributes, and belong to a *trace* identified
by a 16-hex-digit id.  A trace crosses process boundaries through three
propagation channels:

* **request envelopes** — the cluster frontend injects the current
  ``(trace, span)`` pair into each dispatched request payload
  (:func:`inject_message`) and the worker adopts it as the parent of
  its serving span (:func:`extract_message`);
* **queue task files** — the sweep coordinator injects into every task
  message it enqueues; the claiming worker parents its stage span on
  the coordinator's run span, whichever host it runs on;
* **spawn environment** — :class:`repro.runtime.workers.WorkerProcess`
  exports ``REPRO_OBS_TRACE`` around ``Process.start()`` so a child's
  root spans join the spawning trace even before any message arrives.

Every finished span appends one JSON line to a per-process log file
under ``<cache>/obs/`` (``spans-<host>-<pid>.jsonl``).  Appends are
single ``os.write`` calls on an ``O_APPEND`` descriptor, so concurrent
processes sharing a file never interleave mid-record, and a SIGKILLed
process leaves at worst one truncated *line* — the reader skips it and
every complete record survives.  Span *starts* are logged too, so a
span that never finishes (its process died) is visible as truncated
rather than silently absent.

Everything here is **off by default**: when ``REPRO_OBS`` is unset (or
falsy) :func:`span` returns a shared no-op object and no file is ever
opened — the fast path is one environment lookup.
"""

from __future__ import annotations

import contextvars
import json
import os
import socket
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass

from repro.cache import obs_dir, publish

#: Environment variable enabling span capture (off by default).
OBS_ENV = "REPRO_OBS"

#: Environment variable carrying ``<trace>:<span>`` into spawned workers.
TRACE_ENV = "REPRO_OBS_TRACE"

#: Milliseconds after which a request is "slow" (flight-dump trigger);
#: unset disables the slow trigger (failures still dump).
SLOW_MS_ENV = "REPRO_OBS_SLOW_MS"

#: Key under which trace context rides request/task message dicts.
MESSAGE_KEY = "_obs"

#: Finished spans retained in the in-process flight ring.
FLIGHT_CAPACITY = 512

_FALSY = ("0", "false", "no", "off")


def enabled() -> bool:
    """Is span capture on for this process right now?"""
    value = os.environ.get(OBS_ENV)
    if value is None:
        return False
    return value.strip().lower() not in _FALSY


def set_enabled(value: bool | None) -> None:
    """Process-wide default (the CLI's ``--obs``).  Exported through
    :data:`OBS_ENV` so spawned workers resolve the same setting;
    ``None`` is a no-op (flag not given)."""
    if value is None:
        return
    os.environ[OBS_ENV] = "1" if value else "0"


def slow_threshold_s() -> float | None:
    """The flight recorder's slow-request threshold, or ``None`` (off)."""
    value = os.environ.get(SLOW_MS_ENV)
    if not value:
        return None
    try:
        return float(value) / 1e3
    except ValueError:
        return None


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of a trace position: ids only, no timing."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict:
        return {"trace": self.trace_id, "span": self.span_id}

    @classmethod
    def from_wire(cls, payload) -> "TraceContext | None":
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace")
        span_id = payload.get("span")
        if not trace_id or not span_id:
            return None
        return cls(trace_id=str(trace_id), span_id=str(span_id))


def _new_id(bits: int = 64) -> str:
    return uuid.uuid4().hex[: bits // 4]


# ---------------------------------------------------------------------------
# the per-process trace log
# ---------------------------------------------------------------------------
class _TraceLog:
    """Append-only JSONL writer (one file per process under ``<obs>/``)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._root: str | None = None
        self._pid: int | None = None

    def _reopen(self, root: str) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
        os.makedirs(root, exist_ok=True)
        name = f"spans-{socket.gethostname()}-{os.getpid()}.jsonl"
        self._fd = os.open(
            os.path.join(root, name),
            os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644,
        )
        self._root = root
        self._pid = os.getpid()

    def write(self, record: dict) -> None:
        line = (
            json.dumps(record, separators=(",", ":"), default=str) + "\n"
        ).encode()
        with self._lock:
            root = obs_dir()
            if (self._fd is None or root != self._root
                    or os.getpid() != self._pid):
                self._reopen(root)
            try:
                os.write(self._fd, line)
            except OSError:
                pass  # tracing must never take the workload down

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None
                self._root = None


_LOG = _TraceLog()

#: Ring of recently finished span records (the flight recorder).
_FLIGHT: deque = deque(maxlen=FLIGHT_CAPACITY)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_span", default=None
)

_HOST = socket.gethostname()


def ambient_context() -> TraceContext | None:
    """The spawn-environment parent (``REPRO_OBS_TRACE``), if any."""
    value = os.environ.get(TRACE_ENV)
    if not value or ":" not in value:
        return None
    trace_id, _, span_id = value.partition(":")
    if not trace_id or not span_id:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


def current_span() -> "Span | None":
    return _CURRENT.get()


def current_context() -> TraceContext | None:
    """Where a child span (or a propagated message) would attach now."""
    span = _CURRENT.get()
    if span is not None:
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id)
    return ambient_context()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class Span:
    """One open span; use via ``with repro.obs.span(...) as sp``."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "attrs", "status",
        "_t_wall", "_t_perf", "_t_cpu", "_token",
    )

    def __init__(self, name: str, parent: TraceContext | None, attrs: dict):
        active = _CURRENT.get()
        if parent is None and active is not None:
            parent = TraceContext(
                trace_id=active.trace_id, span_id=active.span_id
            )
        if parent is None:
            parent = ambient_context()
        self.trace_id = parent.trace_id if parent else _new_id()
        self.parent_id = parent.span_id if parent else None
        self.span_id = _new_id()
        self.name = name
        self.attrs = dict(attrs)
        self.status = "ok"
        self._t_wall = 0.0
        self._t_perf = 0.0
        self._t_cpu = 0.0
        self._token = None

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute while the span is open."""
        self.attrs[key] = value

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def __enter__(self) -> "Span":
        self._t_wall = time.time()
        self._t_perf = time.perf_counter()
        self._t_cpu = time.process_time()
        self._token = _CURRENT.set(self)
        _LOG.write({
            "ev": "start",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self._t_wall,
            "pid": os.getpid(),
            "host": _HOST,
        })
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
        if exc is not None:
            self.status = f"error: {exc_type.__name__}: {exc}"
        record = {
            "ev": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self._t_wall,
            "dur_s": round(time.perf_counter() - self._t_perf, 9),
            "cpu_s": round(time.process_time() - self._t_cpu, 9),
            "status": self.status,
            "pid": os.getpid(),
            "host": _HOST,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        _LOG.write(record)
        _FLIGHT.append(record)
        return False  # never swallow the exception


class _NoopSpan:
    """The disabled fast path: one shared, allocation-free object."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None
    status = "ok"

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc_info) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    @property
    def context(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def span(name: str, parent: TraceContext | dict | None = None, **attrs):
    """Open a span (a context manager) — or the shared no-op when
    tracing is disabled.

    ``parent`` overrides the ambient parent with an explicitly
    propagated :class:`TraceContext` (or its wire dict) — the
    cross-process hook.  Any other keyword becomes a span attribute.
    """
    if not enabled():
        return NOOP_SPAN
    if isinstance(parent, dict):
        parent = TraceContext.from_wire(parent)
    return Span(name, parent, attrs)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------
def inject_message(message: dict) -> dict:
    """Attach the current trace context to an outgoing message dict."""
    if enabled():
        ctx = current_context()
        if ctx is not None:
            message[MESSAGE_KEY] = ctx.to_wire()
    return message


def extract_message(message: dict) -> TraceContext | None:
    """Pop and return a message's propagated context (``None`` if absent).

    Popping keeps the wire key out of downstream schema validation
    (``ServeRequest.from_dict`` rejects unknown fields).
    """
    if not isinstance(message, dict):
        return None
    return TraceContext.from_wire(message.pop(MESSAGE_KEY, None))


def inject_env(env=None):
    """Export the current context into ``env`` (default ``os.environ``)
    for a child process about to spawn; returns a zero-argument restore
    callable undoing the mutation (call it once the child has started —
    spawn snapshots the environment at ``Process.start()``)."""
    env = os.environ if env is None else env
    if not enabled():
        return lambda: None
    ctx = current_context()
    if ctx is None:
        return lambda: None
    previous = env.get(TRACE_ENV)
    env[TRACE_ENV] = f"{ctx.trace_id}:{ctx.span_id}"

    def restore() -> None:
        if previous is None:
            env.pop(TRACE_ENV, None)
        else:
            env[TRACE_ENV] = previous

    return restore


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
def flight_snapshot() -> list[dict]:
    """The ring's current contents, oldest first."""
    return list(_FLIGHT)


def dump_flight(reason: str, extra: dict | None = None) -> str | None:
    """Persist the span ring to ``<obs>/flight/`` (slow/failed requests).

    Returns the dump path, or ``None`` when tracing is disabled or the
    ring is empty.  Never raises: the recorder is a diagnostic aid, not
    a dependency of the request path.
    """
    if not enabled():
        return None
    spans = flight_snapshot()
    if not spans:
        return None
    try:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        safe = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in reason)[:48]
        path = os.path.join(
            obs_dir(), "flight",
            f"{stamp}-{safe}-{os.getpid()}-{_new_id(32)}.json",
        )
        payload = {
            "reason": reason,
            "time": time.time(),
            "pid": os.getpid(),
            "host": _HOST,
            "spans": spans,
        }
        if extra:
            payload["extra"] = extra
        text = json.dumps(payload, default=str)
        return publish(path, lambda fh: fh.write(text.encode()))
    except OSError:
        return None


def reset_for_tests() -> None:
    """Close the log fd and clear the flight ring (test isolation)."""
    _LOG.close()
    _FLIGHT.clear()
