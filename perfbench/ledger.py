"""Per-layer ledger for the traced run: wrappers around each layer's
public entry points, installed from outside the program.

:func:`install` replaces each entry point with a timing wrapper and
rebinds every name a caller looks it up by (``from x import f`` copies
included), so the program runs unmodified apart from the timing. Each
wrapped call is charged to a layer; a layer's *self* time is its wall
time minus the time of wrapped calls nested inside it on the same thread,
so the self times of one thread sum to the time it spent inside any
layer. Re-entrant calls to the layer already on top of the stack (a
module calling its sub-modules) count once, at the outermost call.

Layer names (module prefixes, as reported by ``perfbench/run.py``)::

    frontends.trace   Frontend.trace (every registered frontend class)
    features.encode   encode_trace
    sim.run           CPUSimulator.run (+ SimResult.stats totals)
    features.dataset  build_dataset
    ml.train          Trainer.fit
    ml.data           ChunkBatches iteration, training batches
    ml.val            validation batches and no-grad Module calls
    ml.forward        Module.__call__ with autograd on
    ml.backward       Tensor.backward
    ml.optim          Adam.step
    core.infer        PerfVec.program_representations
    models.put/load   ModelStore.put / ModelStore.load
    pipeline          Runner.run
    serving.model     PredictionService.model
    serving.features  PredictionService.features
    serving.compute   PredictionService.predict_batch
    serving.worker    PredictionService.predict_each
    http.predict      the HTTP handler's /v1/predict path
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: SimResult.stats keys summed into the ledger (exact simulated counts).
SIM_COUNTS = ("instructions", "cycles", "l1d_misses", "l2_misses", "mispredicts")


class Ledger:
    """Calls, wall seconds and self seconds per layer (thread-safe)."""

    def __init__(self, keep_events: bool = False):
        self.layers: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.sim = dict.fromkeys(SIM_COUNTS, 0)
        self.epochs = 0
        #: per-call (name, start, total_s, self_s, requests) when kept
        self.events: list[tuple] | None = [] if keep_events else None
        self.http: dict[str, float] = {}  # request id -> seconds
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, requests: int = 1):
        """Run ``fn(*args, **kwargs)`` charged to layer ``name``; returns
        ``(result, seconds)``. ``requests`` tags the event (batch size)."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack and stack[-1][0] == name:
            start = time.perf_counter()
            return fn(*args, **kwargs), time.perf_counter() - start
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                row = self.layers.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if self.events is not None:
                    self.events.append(
                        (name, start, elapsed, elapsed - frame[1], requests)
                    )
        return result, elapsed

    def wrap(self, name, fn):
        """``fn`` charged to ``name`` (a string, or a callable of the call's
        arguments returning one)."""
        pick = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(pick(*args, **kwargs), fn, args, kwargs)[0]

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "layers": {
                    name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
                    for name, row in self.layers.items()
                },
                "sim": dict(self.sim),
                "epochs": self.epochs,
                "events": list(self.events or ()),
                "http": dict(self.http),
            }

    def dump(self, path: str) -> None:
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def _rebind(orig, wrapped) -> None:
    """Point every ``repro`` module-level name bound to ``orig`` at
    ``wrapped`` — the copies ``from x import f`` made included."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


def _patch_method(ledger: Ledger, cls, attr: str, name) -> None:
    orig = cls.__dict__[attr]
    setattr(cls, attr, ledger.wrap(name, orig))


def _wrap_sim_run(ledger: Ledger, cls) -> None:
    orig = cls.run

    @functools.wraps(orig)
    def run(self, trace):
        result = ledger.call("sim.run", orig, (self, trace))[0]
        with ledger._lock:
            for key in SIM_COUNTS:
                ledger.sim[key] += int(result.stats[key])
        return result

    cls.run = run


def _wrap_batches(ledger: Ledger, cls) -> None:
    orig = cls.__iter__

    def timed_iter(self):
        name = "ml.data" if self.shuffle else "ml.val"
        if self.shuffle:  # one training pass over the chunks per epoch
            with ledger._lock:
                ledger.epochs += 1
        inner = orig(self)
        while True:
            try:
                item = ledger.call(name, next, (inner,))[0]
            except StopIteration:
                return
            yield item

    cls.__iter__ = timed_iter


def _wrap_batch_method(ledger: Ledger, cls, attr: str, name: str) -> None:
    """A method taking a batch of requests; its events carry the size."""
    orig = cls.__dict__[attr]

    @functools.wraps(orig)
    def method(self, requests):
        requests = list(requests)
        return ledger.call(name, orig, (self, requests),
                           requests=len(requests))[0]

    setattr(cls, attr, method)


def _wrap_http(ledger: Ledger, cls) -> None:
    orig = cls._post_predict

    @functools.wraps(orig)
    def _post_predict(self):
        elapsed = ledger.call("http.predict", orig, (self,))[1]
        with ledger._lock:
            ledger.http[self.request_id] = elapsed

    cls._post_predict = _post_predict


def _frontend_classes(base) -> list:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "trace" in cls.__dict__:
            out.append(cls)
    return out


def install(ledger: Ledger) -> None:
    """Wrap every layer entry point listed in the module docstring."""
    # import everything first, so the rebinding scan sees each copy
    for name in ("repro.cli", "repro.api", "repro.pipeline.presets",
                 "repro.serving", "repro.serving.http",
                 "repro.serving.cluster", "repro.frontends.mini_asm",
                 "repro.frontends.rv", "repro.frontends.trace_import"):
        importlib.import_module(name)
    from repro.core.perfvec import PerfVec
    from repro.features import dataset, encoder
    from repro.frontends.base import Frontend
    from repro.ml.autograd import Tensor, grad_enabled
    from repro.ml.data import ChunkBatches
    from repro.ml.layers import Module
    from repro.ml.optim import Adam
    from repro.ml.trainer import Trainer
    from repro.models.store import ModelStore
    from repro.pipeline.runner import Runner
    from repro.serving.http import _Handler
    from repro.serving.service import PredictionService
    from repro.sim import CPUSimulator

    for fn, name in ((encoder.encode_trace, "features.encode"),
                     (dataset.build_dataset, "features.dataset")):
        _rebind(fn, ledger.wrap(name, fn))
    for cls in _frontend_classes(Frontend):
        _patch_method(ledger, cls, "trace", "frontends.trace")
    _wrap_sim_run(ledger, CPUSimulator)
    _wrap_batches(ledger, ChunkBatches)
    _patch_method(ledger, Trainer, "fit", "ml.train")
    _patch_method(
        ledger, Module, "__call__",
        lambda *a, **k: "ml.forward" if grad_enabled() else "ml.val",
    )
    _patch_method(ledger, Tensor, "backward", "ml.backward")
    _patch_method(ledger, Adam, "step", "ml.optim")
    _patch_method(ledger, PerfVec, "program_representations", "core.infer")
    _patch_method(ledger, ModelStore, "put", "models.put")
    _patch_method(ledger, ModelStore, "load", "models.load")
    _patch_method(ledger, Runner, "run", "pipeline")
    _patch_method(ledger, PredictionService, "model", "serving.model")
    _patch_method(ledger, PredictionService, "features", "serving.features")
    _wrap_batch_method(ledger, PredictionService, "predict_batch",
                       "serving.compute")
    _wrap_batch_method(ledger, PredictionService, "predict_each",
                       "serving.worker")
    _wrap_http(ledger, _Handler)


def metrics_text() -> str:
    """This process's metrics registry in the ``/v1/metrics`` format."""
    from repro import obs
    from repro.obs.metrics import render_prometheus

    return render_prometheus([({}, obs.metrics_snapshot())])
