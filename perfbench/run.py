"""The repository benchmark: four workloads, end-to-end metrics from
untraced runs and a per-layer ledger from a separate traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 0 --seconds 12 --trace 0

Workloads (all at the ``bench`` scale, each run against fresh cache roots
under ``.perfbench/`` that are deleted afterwards):

``fig3_cold``
    The ``fig3_seen_unseen`` pipeline (``Session.run_pipeline``, jobs=1)
    in a fresh process from an empty cache root: trace, encode, simulate,
    train, evaluate. One pipeline per run, whatever ``--seconds`` says.
``simulate``
    ``repro bench-suite --scale bench --jobs 1`` (17 programs x 13
    uarchs) from an empty cache root, repeated while ``--seconds`` allows.
``serve`` / ``serve_cluster``
    Warm ``POST /v1/predict`` against ``repro serve`` (in-process, or
    ``--workers 1``): a seeded uniform mix over the 17 suite programs,
    every uarch per request. A closed loop with two connections gives
    ``max_rps``; an open loop at a fixed rate gives the latencies, timed
    from each request's due time.

The inputs of ``fig3_cold`` and ``simulate`` are the fixed paper suite at
seed 0; ``--seed`` draws the ``serve*`` request mix.

End-to-end metrics (``--trace 0``), for every workload. A workload's
operation is one pipeline (``fig3_cold``), one suite build (``simulate``)
or one request (``serve*``):

``wall_s``       seconds of measured work (serve*: both load phases)
``setup_s``      median set-up time. Batch workloads: process start plus
                 imports. serve*: server launch until every mix program
                 was answered once (model load, feature encode, jit).
``seen_err``     mean total-time error over the 9 training programs
``unseen_err``   mean total-time error over the 8 test programs. fig3_cold:
                 the pipeline's own report. simulate/serve*: the prepared
                 serving model against the run's simulated ground truth.
``lat_p50_ms``   median operation latency (serve*: open loop, due time)
``max_rps``      operations per second (serve*: closed loop)
``peak_rss_mb``  peak RSS of the measured process(es)

``failed_frac`` (failed / attempted; timeouts, 503s and failed output
checks fail) is printed with them and carried by the result's
``attempted``/``failed`` fields. The serve* open-loop tail (p75, the
highest percentile its 78 requests support) and the generator's
lateness are printed too but not gated: on a 2-CPU host whose per-core
speed swings in phases of seconds, the 10-run spread of the open-loop
p90 ranged from 0.14 to 0.58. ``--trace 1`` prints the per-layer
ledger instead (see ``ledger.py`` and ``PER_LAYER`` below).

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a ``meta`` line (host, BLAS,
versions, source digest, scale, seed) precedes it. The serving model is
trained once per checkout into ``.perfbench/prep`` (outside any timing)
and copied into each run's fresh root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import benchmath

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
WORK = os.path.join(CHECKOUT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

SCALE = "bench"
#: Open-loop arrival rate (requests/s): about a third of the closed-loop
#: max_rps of both serve workloads at seed 0 when the benchmark was
#: defined (25-31/s on a 2-CPU x86 host). At half, a neighbour slowing
#: the shared host by 40% pushed the server near saturation, and the
#: 10-run spread of lat_p50_ms reached 0.6.
OPEN_RPS = 10.0
#: Client connections (the host has 2 CPUs; so does the load).
CONNECTIONS = 2
#: Share of --seconds given to the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.35
#: Client timeout per request; a timeout counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Set-up repetitions per run (setup_s is their median).
SETUP_PROBES = 3
SERVE_SETUPS = 2
#: Time limits for child processes.
CHILD_TIMEOUT_S = 170.0
PREPARE_TIMEOUT_S = 600.0
HEALTH_TIMEOUT_S = 60.0

#: The suite dataset ``simulate`` must rebuild, bit for bit.
SUITE_ROWS = 102_000
SUITE_FINGERPRINT = "2953b80dccc308aa"
#: Exact SimResult.stats totals over the suite (checked by traced runs):
#: a speed-only simulator change leaves them identical.
SUITE_SIM_COUNTS = {"cycles": 3_934_328, "l1d_misses": 29_130,
                    "l2_misses": 23_569, "mispredicts": 31_791}

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("seen_err", "ratio"),
    ("unseen_err", "ratio"), ("lat_p50_ms", "ms"), ("max_rps", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("frontends.trace_s", "s"), ("features.encode_s", "s"),
    ("sim.run_s", "s"), ("sim.runs", "count"), ("sim.ns_per_inst", "ns"),
    ("features.dataset_self_s", "s"),
    ("sim.cycles", "count"), ("sim.l1d_misses", "count"),
    ("sim.l2_misses", "count"), ("sim.mispredicts", "count"),
    ("ml.epochs", "count"), ("ml.steps", "count"), ("ml.epoch_s", "s"),
    ("ml.data_s", "s"), ("ml.forward_s", "s"), ("ml.backward_s", "s"),
    ("ml.optim_s", "s"), ("ml.val_s", "s"), ("ml.train_self_s", "s"),
    ("core.infer_calls", "count"), ("core.infer_s", "s"),
    ("jit.compiles", "count"), ("jit.compile_s", "s"),
    ("jit.hit_ratio", "ratio"),
    ("serving.transport_ms", "ms"), ("serving.queue_wait_ms", "ms"),
    ("serving.compute_ms", "ms"), ("serving.batch_size", "count"),
    ("serving.resolve_ms", "ms"), ("serving.features_ms", "ms"),
    ("serving.engine_ms", "ms"), ("serving.model_hit_ratio", "ratio"),
    ("serving.feature_hit_ratio", "ratio"), ("serving.dispatch_ms", "ms"),
    ("models.put_s", "s"), ("models.load_s", "s"),
    ("pipeline.stages_executed", "count"), ("pipeline.self_s", "s"),
    ("unattributed_s", "s"), ("unattributed_frac", "ratio"),
    ("traced.wall_s", "s"), ("trace_overhead_s", "s"),
    ("trace_overhead_frac", "ratio"),
)

#: Printed with the end-to-end metrics but not gated (see the docstring):
#: the open-loop tail and how late the load generator sent.
UNGATED = (("lat_p75_ms", "ms"), ("late_p50_ms", "ms"), ("late_max_ms", "ms"))


class CheckFailed(Exception):
    """An output check failed: the run reports ``correct: false``."""


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- processes and cache roots ------------------------------------------------
@contextlib.contextmanager
def fresh_root():
    """A new empty cache root inside the checkout, removed afterwards."""
    os.makedirs(WORK, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def child_env(root: str) -> dict:
    """The caller's environment with every repro setting pointed at
    ``root``: no run reads or writes the checkout's own caches."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PERFBENCH_"))}
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = root
    env["REPRO_RESULTS_DIR"] = os.path.join(root, "results")
    return env


def _tail(path: str) -> str:
    with open(path, errors="replace") as fh:
        return fh.read()[-3000:]


def run_child(args: list[str], root: str,
              timeout: float = CHILD_TIMEOUT_S) -> tuple[float, float]:
    """Run ``child.py args`` with cache root ``root``.

    Returns ``(wall seconds, peak RSS MB)`` of that process. Its output
    goes to a log file in ``root``, never to an unread pipe.
    """
    log_path = os.path.join(root, f"child-{args[0]}.log")
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args], cwd=root, env=child_env(root),
            stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > timeout:
                    raise TimeoutError(f"child {args[0]} ran over {timeout}s")
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited with {proc.returncode}:\n"
                           f"{_tail(log_path)}")
    return elapsed, usage.ru_maxrss / 1024.0  # Linux reports KiB


def setup_probes(root: str, n: int = SETUP_PROBES) -> list[float]:
    """Process start plus imports, ``n`` times in fresh interpreters."""
    return [run_child(["probe"], root)[0] for _ in range(n)]


def prepared() -> str:
    """The serving artifact root, trained once per checkout."""
    prep = os.path.join(WORK, "prep")
    if os.path.exists(os.path.join(prep, "prepared.json")):
        return prep
    os.makedirs(WORK, exist_ok=True)
    shutil.rmtree(prep, ignore_errors=True)
    tmp = tempfile.mkdtemp(prefix="prep-", dir=WORK)
    try:
        _log("preparing the serving model (once per checkout)...")
        run_child(["prepare", tmp], tmp, timeout=PREPARE_TIMEOUT_S)
        os.replace(tmp, prep)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return prep


def install_prepared(root: str, parts=("models", "datasets")) -> None:
    """Copy the prepared store into ``root`` (training it first if this
    checkout has none; callers do this outside any timed region)."""
    prep = prepared()
    for part in parts:
        shutil.copytree(os.path.join(prep, part), os.path.join(root, part))


def model_errors(root: str) -> tuple[float, float]:
    """Seen/unseen mean total-time error of the stored serving model
    against the suite dataset under ``root``."""
    from repro.api import Session
    from repro.workloads import ALL_BENCHMARKS, TEST_BENCHMARKS, TRAIN_BENCHMARKS

    errors = Session(scale=SCALE, cache_dir=root).evaluate(
        tuple(ALL_BENCHMARKS)
    )
    seen = statistics.fmean(errors[n].mean for n in TRAIN_BENCHMARKS)
    unseen = statistics.fmean(errors[n].mean for n in TEST_BENCHMARKS)
    if not (math.isfinite(seen) and math.isfinite(unseen)):
        raise CheckFailed(f"non-finite model error {seen}, {unseen}")
    return seen, unseen


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- the /v1/metrics text format ------------------------------------------------
def parse_metrics(text: str) -> dict[str, float]:
    from repro.obs.metrics import parse_prometheus

    return parse_prometheus(text)


def metric_sum(samples: dict[str, float], name: str, **labels) -> float:
    """Sum of the ``name`` series whose labels include ``labels``."""
    total = 0.0
    for series, value in samples.items():
        base, _, rest = series.partition("{")
        if base == name and all(f'{k}="{v}"' in rest
                                for k, v in labels.items()):
            total += value
    return total


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def jit_layer(samples: dict[str, float]) -> dict:
    events = "repro_jit_events_total"
    made = (metric_sum(samples, events, kind="compile")
            + metric_sum(samples, events, kind="disk_hit"))
    hits = metric_sum(samples, events, kind="registry_hit")
    return {
        "jit.compiles": made,
        "jit.compile_s": metric_sum(samples, "repro_jit_compile_seconds_sum"),
        "jit.hit_ratio": ratio(hits, hits + made),
    }


# -- batch workloads: fig3_cold, simulate ---------------------------------------
def batch_layers(data: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from a traced batch child's payload."""
    ledger = data["ledger"]
    layers = ledger["layers"]
    wall = data["wall_s"]

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    rest, rest_frac = benchmath.unattributed(
        wall, {name: row["self_s"] for name, row in layers.items()}
    )
    sim = ledger["sim"]
    epochs = ledger["epochs"]
    out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    out.update({
        "frontends.trace_s": self_s("frontends.trace"),
        "features.encode_s": self_s("features.encode"),
        "sim.run_s": self_s("sim.run"),
        "sim.runs": calls("sim.run"),
        "sim.ns_per_inst": 1e9 * ratio(self_s("sim.run"), sim["instructions"]),
        "features.dataset_self_s": self_s("features.dataset"),
        "sim.cycles": sim["cycles"], "sim.l1d_misses": sim["l1d_misses"],
        "sim.l2_misses": sim["l2_misses"], "sim.mispredicts": sim["mispredicts"],
        "ml.epochs": epochs, "ml.steps": calls("ml.optim"),
        "ml.epoch_s": ratio(layers.get("ml.train", {}).get("total_s", 0.0),
                            epochs),
        "ml.data_s": self_s("ml.data"),
        "ml.forward_s": self_s("ml.forward"),
        "ml.backward_s": self_s("ml.backward"),
        "ml.optim_s": self_s("ml.optim"),
        "ml.val_s": self_s("ml.val"),
        "ml.train_self_s": self_s("ml.train"),
        "core.infer_calls": calls("core.infer"),
        "core.infer_s": self_s("core.infer"),
        "models.put_s": self_s("models.put"),
        "models.load_s": self_s("models.load"),
        "pipeline.stages_executed": data.get("executed", 0),
        "pipeline.self_s": self_s("pipeline"),
        "unattributed_s": rest, "unattributed_frac": rest_frac,
        "traced.wall_s": wall,
        "trace_overhead_s": wall - untraced_wall,
        "trace_overhead_frac": (wall - untraced_wall) / untraced_wall,
    })
    out.update(jit_layer(parse_metrics(data["metrics_text"])))
    return out


def batch_child(op: str, root: str, traced: bool = False) -> dict:
    """One batch operation in a fresh process; its payload plus
    ``setup_s`` (spawn to imports done) and ``rss_mb``."""
    out = os.path.join(root, f"{op}.json")
    spawned = time.perf_counter()
    _, rss = run_child([op, out, *(["--trace"] if traced else [])], root)
    data = _read_json(out)
    data["setup_s"] = data["ready_t"] - spawned
    data["rss_mb"] = rss
    return data


def check_fig3(data: dict) -> None:
    rows = data["rows"]
    if len(rows) != 17:
        raise CheckFailed(f"fig3 report has {len(rows)} rows, expected 17")
    for name, split, mean in rows:
        if not math.isfinite(float(mean.rstrip("%"))):
            raise CheckFailed(f"fig3 row {name} ({split}) error {mean}")
    for key in ("seen_err", "unseen_err"):
        if not math.isfinite(data[key]):
            raise CheckFailed(f"fig3 {key} = {data[key]}")
    if data["rerun_executed"] != 0:
        raise CheckFailed(f"an immediate fig3 re-run executed "
                          f"{data['rerun_executed']} stages, expected 0")


def run_fig3_cold(opts) -> tuple[dict, int, int]:
    with fresh_root() as root:
        setups = [] if opts.trace else setup_probes(root)
    with fresh_root() as root:
        data = batch_child("fig3", root)
    check_fig3(data)
    if opts.trace:
        with fresh_root() as root:
            traced = batch_child("fig3", root, traced=True)
        check_fig3(traced)
        return batch_layers(traced, data["wall_s"]), 2, 0
    wall = data["wall_s"]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups + [data["setup_s"]]),
        "seen_err": data["seen_err"], "unseen_err": data["unseen_err"],
        "lat_p50_ms": 1e3 * wall, "max_rps": 1.0 / wall,
        "peak_rss_mb": data["rss_mb"],
    }, 1, 0


def check_suite(data: dict) -> None:
    if data["rows"] != SUITE_ROWS:
        raise CheckFailed(f"suite has {data['rows']} rows, not {SUITE_ROWS}")
    if data["fingerprint"] != SUITE_FINGERPRINT:
        raise CheckFailed(f"suite dataset fingerprint {data['fingerprint']} "
                          f"differs from the recorded {SUITE_FINGERPRINT}")


def run_simulate(opts) -> tuple[dict, int, int]:
    with fresh_root() as root:
        setups = [] if opts.trace else setup_probes(root)
    builds: list[dict] = []
    errors = None
    while True:
        with fresh_root() as root:
            data = batch_child("suite", root)
            check_suite(data)
            builds.append(data)
            if errors is None:
                # the serving model against this run's ground truth
                install_prepared(root, parts=("models",))
                errors = model_errors(root)
        walls = [b["wall_s"] for b in builds]
        if opts.trace or sum(walls) + statistics.fmean(walls) > opts.seconds:
            break
    if opts.trace:
        with fresh_root() as root:
            traced = batch_child("suite", root, traced=True)
        check_suite(traced)
        counts = {key: traced["ledger"]["sim"][key]
                  for key in ("cycles", "l1d_misses", "l2_misses",
                              "mispredicts")}
        if counts != SUITE_SIM_COUNTS:
            raise CheckFailed(f"simulated counts {counts} differ from the "
                              f"recorded {SUITE_SIM_COUNTS}")
        return batch_layers(traced, walls[0]), 2, 0
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups + [b["setup_s"] for b in builds]),
        "seen_err": errors[0], "unseen_err": errors[1],
        "lat_p50_ms": 1e3 * wall, "max_rps": len(walls) / sum(walls),
        "peak_rss_mb": max(b["rss_mb"] for b in builds),
    }, len(builds), 0


# -- serving workloads -----------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _proc_stat(pid) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def descendants(pid: int) -> list[int]:
    """``pid`` followed by every live descendant (from /proc)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        fields = _proc_stat(entry) if entry.isdigit() else None
        if fields:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(children.get(current, ()))
    return out


def alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def http_call(port: int, method: str, path: str, body: bytes | None = None,
              request_id: str | None = None) -> tuple[int, bytes]:
    """One HTTP exchange with the client timeout; raises on timeout."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    headers = {"Content-Type": "application/json"}
    if request_id:
        headers["X-Request-Id"] = request_id
    try:
        conn.request(method, path, body=body, headers=headers)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def post_predict(port: int, benchmark: str, request_id: str):
    body = json.dumps({"benchmark": benchmark}).encode()
    return http_call(port, "POST", "/v1/predict", body, request_id)


class Server:
    """A ``repro serve`` process on a fresh root, stopped and reaped on
    every exit path. ``setup_s`` runs from launch until every mix program
    has been answered once."""

    def __init__(self, root: str, workers: int, benchmarks,
                 ledger_dir: str | None = None):
        self.root = root
        self.workers = workers
        self.benchmarks = list(benchmarks)
        self.ledger_dir = ledger_dir
        self.port = free_port()
        self.proc: subprocess.Popen | None = None
        self.log_path = os.path.join(root, "serve.log")
        self.first_answers: dict[str, bytes] = {}
        self.setup_s = 0.0

    def __enter__(self) -> "Server":
        install_prepared(self.root)
        args = ["--scale", SCALE, "--port", str(self.port),
                "--workers", str(self.workers)]
        env = child_env(self.root)
        if self.ledger_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:  # the launcher installs the layer wrappers first
            cmd = [sys.executable, CHILD, "serve", self.ledger_dir, "--", *args]
            env["PERFBENCH_LEDGER_DIR"] = self.ledger_dir
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                         stdout=log, stderr=subprocess.STDOUT)
        try:
            self._await_health(start)
            for i, name in enumerate(self.benchmarks):
                status, body = post_predict(self.port, name, f"setup-{i}")
                if status != 200:
                    raise RuntimeError(f"set-up request {name}: {status} "
                                       f"{body[:200]!r}")
                self.first_answers[name] = body
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise
        return self

    def _await_health(self, start: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start:\n"
                                   + _tail(self.log_path))
            if time.perf_counter() - start > HEALTH_TIMEOUT_S:
                raise RuntimeError("server never became healthy:\n"
                                   + _tail(self.log_path))
            with contextlib.suppress(OSError):
                if http_call(self.port, "GET", "/healthz")[0] == 200:
                    return
            time.sleep(0.02)

    def metrics(self) -> dict[str, float]:
        return parse_metrics(
            http_call(self.port, "GET", "/v1/metrics")[1].decode()
        )

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and its worker processes."""
        return sum(peak_rss_kib(pid)
                   for pid in descendants(self.proc.pid)) / 1024.0

    def stop(self) -> None:
        """SIGINT (a graceful stop: ledgers get written), then SIGKILL
        whatever is left; every process is reaped or gone."""
        if self.proc is None:
            return
        family = descendants(self.proc.pid)[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.perf_counter() + 10
        for pid in family:
            while alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.02)
            if alive(pid):
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        self.proc = None

    def __exit__(self, *exc) -> None:
        self.stop()


class Recorder:
    """Outcome and timing of every request sent during one server's life."""

    def __init__(self, port: int, reference: dict, artifact: str):
        self.port = port
        self.reference = reference
        self.artifact = artifact
        self.lock = threading.Lock()
        self.rows: list[dict] = []

    def send(self, benchmark: str, request_id: str) -> dict:
        sent = time.perf_counter()
        try:
            status, body = post_predict(self.port, benchmark, request_id)
            outcome = self.check(benchmark, status, body)
        except TimeoutError:
            outcome = "timeout"
        except (OSError, http.client.HTTPException):
            outcome = "error"
        row = {"id": request_id, "sent": sent, "done": time.perf_counter(),
               "outcome": outcome}
        with self.lock:
            self.rows.append(row)
        return row

    def check(self, benchmark: str, status: int, body: bytes) -> str:
        """Byte-identity with ``Session.predict_many``: JSON floats
        round-trip exactly, so equal parsed values mean equal bits."""
        if status == 503:
            return "http_503"
        if status != 200:
            return "http_error"
        try:
            answer = json.loads(body)
        except ValueError:
            return "mismatch"
        if (answer.get("artifact") != self.artifact
                or answer.get("times") != self.reference[benchmark]):
            return "mismatch"
        return benchmath.OK


def _next_index(lock: threading.Lock, cursor: list[int]) -> int:
    with lock:
        i = cursor[0]
        cursor[0] += 1
    return i


def closed_loop(rec: Recorder, mix: list[str], seconds: float):
    """CONNECTIONS clients, each sending its next request on reply.
    Returns ``(rows, wall seconds)``."""
    deadline = time.perf_counter() + seconds
    lock, cursor, rows = threading.Lock(), [0], []

    def client() -> None:
        while time.perf_counter() < deadline:
            i = _next_index(lock, cursor)
            rows.append(rec.send(mix[i % len(mix)], f"closed-{i}"))

    start = time.perf_counter()
    _run_threads(client)
    return rows, time.perf_counter() - start


def open_loop(send, n: int, rate: float):
    """``n`` requests due every ``1/rate`` s, sent by CONNECTIONS senders.

    ``send(i)`` returns a row with ``sent``/``done``/``outcome``. Returns
    ``(rows, due times, wall seconds)``; a request that waits for a free
    sender goes out late, and its due-time latency counts the wait.
    """
    start = time.perf_counter() + 0.02
    due = [start + i / rate for i in range(n)]
    rows: list[dict | None] = [None] * n
    lock, cursor = threading.Lock(), [0]

    def sender() -> None:
        while (i := _next_index(lock, cursor)) < n:
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rows[i] = send(i)

    _run_threads(sender)
    return rows, due, time.perf_counter() - start


def open_loop_latencies(rows, due) -> list[float]:
    """Due-time latencies; a failed request counts as the client timeout."""
    return benchmath.due_latencies(
        due, [r["done"] if r["outcome"] == benchmath.OK
              else d + REQUEST_TIMEOUT_S for r, d in zip(rows, due)],
    )


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def request_mix(seed: int, phase: str, n: int, benchmarks) -> list[str]:
    rng = random.Random(f"{seed}-{phase}")
    return [rng.choice(benchmarks) for _ in range(n)]


def reference_answers(root: str) -> tuple[dict, str]:
    """``Session.predict_many`` over the suite: what every answer must be."""
    from repro.api import Session
    from repro.workloads import ALL_BENCHMARKS

    session = Session(scale=SCALE, cache_dir=root)
    artifact = session.resolve_artifact("perfvec")
    return session.predict_many(tuple(ALL_BENCHMARKS)), artifact


#: Layers nested in PredictionService.predict_batch.
_COMPUTE_CHILDREN = ("serving.model", "serving.features", "core.infer",
                     "models.load")


def serve_layers(ledgers: list[dict], rows: list[dict], window, samples,
                 cluster: bool) -> dict:
    """Per-request split of the closed-loop requests in ``window``.

    Server and worker ledgers share the host's monotonic clock with the
    client, so events are selected by start time. Per request:
    client latency = transport + queue wait + compute, where compute is
    the batch (PredictionService.predict_batch) the request rode in, split
    into resolve, features, engine and model load. In the cluster the
    queue wait includes ``dispatch``: dispatcher, pipe and reader time
    outside the worker's message handling. The layer totals
    (``core.infer_*``, ``models.load_s``) cover the servers' whole life,
    set-up included, like the jit and cache-hit counters they sit with.
    """
    lo, hi = window
    http_s: dict[str, float] = {}
    batches, handled = [], []
    lifetime: dict[str, list] = {}  # name -> [calls, self_s]
    for ledger in ledgers:
        http_s.update(ledger["http"])
        for name, row in ledger["layers"].items():
            acc = lifetime.setdefault(name, [0, 0.0])
            acc[0] += row["calls"]
            acc[1] += row["self_s"]
        events = [e for e in ledger["events"] if lo <= e[1] <= hi]
        for name, start, total, _, n in events:
            if name == "serving.worker":
                handled.append((n, total))
            if name != "serving.compute":
                continue
            inside = [e for e in events if e[0] in _COMPUTE_CHILDREN
                      and start <= e[1] <= start + total]
            split = {child: sum(e[3] for e in inside if e[0] == child)
                     for child in _COMPUTE_CHILDREN}
            split["features_total"] = sum(
                e[2] for e in inside if e[0] == "serving.features")
            batches.append((n, total, split))

    requests = sum(n for n, *_ in batches)

    def per_request(value) -> float:  # each request waits for its batch
        return sum(n * value(rest) for n, *rest in batches) / requests

    ok = [r for r in rows if r["outcome"] == benchmath.OK and r["id"] in http_s]
    client = statistics.fmean(r["done"] - r["sent"] for r in ok)
    server = statistics.fmean(http_s[r["id"]] for r in ok)
    compute = per_request(lambda b: b[0])
    resolve = per_request(lambda b: b[1]["serving.model"])
    features = per_request(lambda b: b[1]["features_total"])
    engine = per_request(lambda b: b[1]["core.infer"])
    load = per_request(lambda b: b[1]["models.load"])
    handle = (sum(n * s for n, s in handled) / sum(n for n, _ in handled)
              if cluster and handled else compute)
    # time in no named part: predict_batch's own code, plus (cluster) the
    # worker's message handling outside predict_batch
    rest = (compute - resolve - features - engine - load) + (handle - compute)

    def cache_ratio(cache: str) -> float:
        series = "repro_serving_cache_total"
        return ratio(metric_sum(samples, series, cache=cache, outcome="hit"),
                     metric_sum(samples, series, cache=cache))

    out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    out.update({
        "core.infer_calls": lifetime.get("core.infer", [0, 0.0])[0],
        "core.infer_s": lifetime.get("core.infer", [0, 0.0])[1],
        "models.load_s": lifetime.get("models.load", [0, 0.0])[1],
        "serving.transport_ms": 1e3 * (client - server),
        "serving.queue_wait_ms": 1e3 * (server - compute),
        "serving.compute_ms": 1e3 * compute,
        "serving.batch_size": requests / len(batches),
        "serving.resolve_ms": 1e3 * resolve,
        "serving.features_ms": 1e3 * features,
        "serving.engine_ms": 1e3 * engine,
        "serving.model_hit_ratio": cache_ratio("model"),
        "serving.feature_hit_ratio": cache_ratio("feature"),
        "serving.dispatch_ms": 1e3 * (server - handle) if cluster else 0.0,
        "unattributed_s": rest * len(ok),
        "unattributed_frac": rest / client,
    })
    out.update(jit_layer(samples))
    return out


def open_requests(seconds: float) -> int:
    return round(OPEN_RPS * (1 - CLOSED_SHARE) * seconds)


def serve_once(opts, workers: int, benchmarks, ledger_dir=None,
               with_open: bool = True) -> dict:
    """One measured server life: set-up, output reference, closed loop,
    then (optionally) the open loop."""
    closed_s = CLOSED_SHARE * opts.seconds
    open_n = open_requests(opts.seconds)
    with fresh_root() as root:
        with Server(root, workers, benchmarks, ledger_dir) as srv:
            reference, artifact = reference_answers(root)
            rec = Recorder(srv.port, reference, artifact)
            first = [rec.check(name, 200, body)
                     for name, body in srv.first_answers.items()]
            lo = time.perf_counter()
            closed_rows, closed_wall = closed_loop(
                rec, request_mix(opts.seed, "closed", 100_000, benchmarks),
                closed_s)
            hi = time.perf_counter()
            result = {"setup_s": srv.setup_s, "closed_rows": closed_rows,
                      "closed_wall": closed_wall, "window": (lo, hi)}
            if with_open:
                mix = request_mix(opts.seed, "open", open_n, benchmarks)
                result["open"] = open_loop(
                    lambda i: rec.send(mix[i], f"open-{i}"), open_n, OPEN_RPS)
            result["rss_mb"] = srv.peak_rss_mb()
            result["samples"] = srv.metrics()
            result["errors"] = model_errors(root)
        if ledger_dir is not None:  # written by the stopped processes
            result["ledgers"] = [
                _read_json(os.path.join(ledger_dir, name))
                for name in sorted(os.listdir(ledger_dir))
                if name.endswith(".json")
            ]
    result["outcomes"] = first + [r["outcome"] for r in rec.rows]
    return result


def run_serve(opts, workers: int) -> tuple[dict, int, int]:
    from repro.workloads import ALL_BENCHMARKS

    benchmarks = list(ALL_BENCHMARKS)
    open_n = open_requests(opts.seconds)
    if not benchmath.supported(open_n, 75):
        raise SystemExit(f"--seconds {opts.seconds:g} leaves {open_n} open-loop "
                         "requests, too few for a 75th percentile")
    if opts.trace:
        return traced_serve(opts, workers, benchmarks)
    setups = []
    for _ in range(SERVE_SETUPS - 1):  # set-up only
        with fresh_root() as root, Server(root, workers, benchmarks) as srv:
            setups.append(srv.setup_s)
    run = serve_once(opts, workers, benchmarks)
    setups.append(run["setup_s"])
    outcomes = run["outcomes"]
    if "mismatch" in outcomes:
        raise CheckFailed("a served answer differs from Session.predict_many")
    open_rows, due, open_wall = run["open"]
    latencies = open_loop_latencies(open_rows, due)
    late = benchmath.lateness(due, [r["sent"] for r in open_rows])
    closed_ok = sum(r["outcome"] == benchmath.OK for r in run["closed_rows"])
    attempted, failed, _ = benchmath.failed_fraction(outcomes)
    return {
        "wall_s": run["closed_wall"] + open_wall,
        "setup_s": statistics.median(setups),
        "seen_err": run["errors"][0], "unseen_err": run["errors"][1],
        "lat_p50_ms": 1e3 * benchmath.percentile(latencies, 50),
        "max_rps": closed_ok / run["closed_wall"],
        "peak_rss_mb": run["rss_mb"],
        "lat_p75_ms": 1e3 * benchmath.percentile(latencies, 75),
        "late_p50_ms": 1e3 * benchmath.percentile(late, 50),
        "late_max_ms": 1e3 * max(late),
    }, attempted, failed


def traced_serve(opts, workers: int, benchmarks) -> tuple[dict, int, int]:
    """An untraced and a traced server, each through the same closed loop."""
    plain = serve_once(opts, workers, benchmarks, with_open=False)
    with tempfile.TemporaryDirectory(prefix="ledgers-", dir=WORK) as ledgers:
        traced = serve_once(opts, workers, benchmarks, ledger_dir=ledgers,
                            with_open=False)
    if len(traced["ledgers"]) != 1 + workers:
        raise CheckFailed(f"expected {1 + workers} server ledgers, "
                          f"got {len(traced['ledgers'])}")
    outcomes = plain["outcomes"] + traced["outcomes"]
    if "mismatch" in outcomes:
        raise CheckFailed("a served answer differs from Session.predict_many")
    layers = serve_layers(traced["ledgers"], traced["closed_rows"],
                          traced["window"], traced["samples"],
                          cluster=workers > 0)

    def mean_latency(rows) -> float:
        return statistics.fmean(r["done"] - r["sent"] for r in rows
                                if r["outcome"] == benchmath.OK)

    base = mean_latency(plain["closed_rows"])
    overhead = mean_latency(traced["closed_rows"]) - base
    layers.update({
        "traced.wall_s": traced["closed_wall"],
        "trace_overhead_s": overhead,  # per request
        "trace_overhead_frac": overhead / base,
    })
    attempted, failed, _ = benchmath.failed_fraction(outcomes)
    return layers, attempted, failed


# -- run metadata -----------------------------------------------------------------
def blas_info() -> dict:
    import ctypes

    import numpy

    info: dict = {"library": None, "version": None, "threads": None}
    with contextlib.suppress(TypeError, KeyError):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = deps.get("name"), deps.get("version")
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "blas" in line.lower()})
    for path in paths:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for symbol in ("openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    info["threads"] = int(fn())
                    return info
    return info


def source_digest() -> str:
    """sha256 over the program sources (a checkout need not be a git repo)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(CHECKOUT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_meta(opts) -> dict:
    import numpy

    return {
        "workload": opts.workload, "seed": opts.seed, "scale": SCALE,
        "seconds": opts.seconds, "trace": opts.trace,
        "host_cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "open_rps": OPEN_RPS, "connections": CONNECTIONS,
    }


# -- entry point ------------------------------------------------------------------
WORKLOADS = {
    "fig3_cold": run_fig3_cold,
    "simulate": run_simulate,
    "serve": lambda opts: run_serve(opts, workers=0),
    "serve_cluster": lambda opts: run_serve(opts, workers=1),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="PerfVec reproduction benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"error: no program sources under {SRC}; run from a checkout")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    # this process's own repro calls get a scratch root too: nothing may
    # fall back to the checkout's .repro_cache/
    scratch = tempfile.mkdtemp(prefix="bench-", dir=WORK)
    os.environ["REPRO_CACHE_DIR"] = scratch
    try:
        try:
            metrics, attempted, failed = WORKLOADS[opts.workload](opts)
        except CheckFailed as exc:
            _log(f"output check failed: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        spec = PER_LAYER if opts.trace else END_TO_END
        for name, unit in spec + UNGATED:
            if name in metrics:
                print(f"{opts.workload:>14s}  {name:<26s} "
                      f"{metrics[name]:>14.6g} {unit}")
        print(f"{opts.workload:>14s}  {'failed_frac':<26s} "
              f"{failed / attempted:>14.6g} ratio")
        print("meta " + json.dumps(run_meta(opts), sort_keys=True))
        print(json.dumps({
            "correct": True, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in spec},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
