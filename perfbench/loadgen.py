"""``serve-mixed``: an open-loop load generator against ``repro serve``.

The server runs as its own process (``python -m repro serve`` with a cache
directory and ``--journal --fsync``; the traced run starts it through
``launcher.py``).  The generator sends a seeded stream of requests on the
headline cell, Exponential n=13, t=4: :data:`HIT_SHARE` of them repeat a
small working set that was served once before the timed phase (cache
reads), the rest carry fresh seeds (admit → journal → execute → cache
write → journal).

Open-loop discipline: every send time is fixed before the phase starts, at
:data:`RATES` requests per second in three equal steps.  At most
:data:`CONNECTIONS` requests are in flight; a request is timed from the
moment it was due, so a stall also delays the requests queued behind it.
The generator's own lateness — how long after a request was due *and* a
connection was free it actually went out — is ``lag``; when its p99
exceeds :data:`LAG_LIMIT_MS` the run is invalid, not slow.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import common

#: The three fixed offered rates of the schedule (requests per second).
RATES = (10.0, 20.0, 30.0)
#: Share of scheduled requests that repeat the pre-served working set.
HIT_SHARE = 0.8
WORKING_SET = 8
CONNECTIONS = 2
#: A rate is sustained when its p99 latency stays within this limit ...
LATENCY_LIMIT_MS = 100.0
#: ... and requests at the end of its step wait at most this long to be sent.
BACKLOG_LIMIT_MS = 20.0
#: Above this generator lag (p99) the measurement is refused as invalid.
LAG_LIMIT_MS = 20.0
#: Fresh server processes per run for the set-up time median.
SETUP_SAMPLES = 5
#: How many served outcomes are recomputed locally and compared.
VERIFY_SAMPLE = 6

SCENARIOS = ("faulty-source-allies", "faulty-source-stealth",
             "minimal-exposure", "staggered-crash")
CELL = {"protocol": "exponential", "n": 13, "t": 4}

READY_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


def _request(seed: int, index: int) -> Dict[str, Any]:
    return {**CELL, "initial_value": 1,
            "scenario": SCENARIOS[index % len(SCENARIOS)],
            "battery": "worst-case", "seed": seed}


class Stream:
    """The seeded request stream: a working set and the timed schedule."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"serve-mixed:{seed}")
        self.working_set = [_request(rng.getrandbits(62), i)
                            for i in range(WORKING_SET)]
        self._seed = seed

    def schedule(self, seconds: float) -> List[Tuple[float, int, Dict]]:
        """``(due offset, step, request)`` for every send, in order."""
        rng = random.Random(f"serve-mixed-schedule:{self._seed}")
        sends = []
        fresh = 0
        step_length = seconds / len(RATES)
        for step, rate in enumerate(RATES):
            count = max(1, int(step_length * rate))
            for k in range(count):
                if rng.random() < HIT_SHARE:
                    body = rng.choice(self.working_set)
                else:
                    fresh += 1
                    body = _request(rng.getrandbits(62), fresh)
                sends.append((step * step_length + k / rate, step, body))
        return sends


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _post(port: int, body: Dict[str, Any]) -> Tuple[int, Optional[Dict]]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", "/run", body=json.dumps(body))
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(payload)
    except ValueError:
        return response.status, None


class Server:
    """One ``repro serve`` process with its own cache directory and journal."""

    def __init__(self, workdir: str, traced: bool) -> None:
        self.port = _free_port()
        self.summary_path = os.path.join(workdir, "trace-summary.json")
        serve_args = ["--port", str(self.port),
                      "--cache-dir", os.path.join(workdir, "cache"),
                      "--journal", os.path.join(workdir, "journal.jsonl"),
                      "--fsync", "--workers", str(CONNECTIONS)]
        if traced:
            command = [sys.executable,
                       str(common.ROOT / "perfbench" / "launcher.py"),
                       self.summary_path,
                       str(common.OUT / "spans-serve-mixed.ndjson"), "--",
                       *serve_args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

    def first_response(self, body: Dict[str, Any]
                       ) -> Tuple[int, Optional[Dict]]:
        """Post *body* as soon as the server listens; its response."""
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            if self.process.poll() is not None:
                error = self.process.stderr.read().decode()[-500:]
                raise RuntimeError(f"repro serve exited during start-up: "
                                   f"{error}")
            try:
                return _post(self.port, body)
            except ConnectionRefusedError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def peak_rss_mb(self) -> Optional[float]:
        return common.peak_rss_mb_of(self.process.pid)

    def stop(self) -> Optional[Dict[str, Any]]:
        """Graceful shutdown; the traced server's summary, if any."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stderr.close()
        if os.path.exists(self.summary_path):
            with open(self.summary_path, encoding="utf-8") as handle:
                return json.load(handle)
        return None


class Checker:
    """Checks every response: status, outcome, equality with its cold run."""

    def __init__(self) -> None:
        self.bound = common.bound_for(CELL["protocol"], {}, CELL["n"],
                                      CELL["t"])
        self.cold: Dict[str, Dict[str, Any]] = {}
        self.requests: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.rejects = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def check(self, body: Dict[str, Any], status: int,
              payload: Optional[Dict]) -> bool:
        with self._lock:
            self.attempted += 1
            problems = []
            if status != 200 or payload is None:
                if status == 429 or status >= 500:
                    self.rejects += 1
                problems.append(f"HTTP {status}")
            else:
                digest, outcome = payload["id"], payload["outcome"]
                problems.extend(common.outcome_problems(outcome, self.bound))
                if digest not in self.cold:
                    self.cold[digest] = outcome
                    self.requests[digest] = body
                elif self.cold[digest] != outcome:
                    problems.append("cache hit differs from the cold outcome")
            if problems:
                self.failed += 1
                self.problems.extend(problems[:2])
            return not problems

    def verify_sample(self, seed: int) -> None:
        """Recompute a seeded sample of served outcomes in this process."""
        common.use_source()
        from repro.api import RunRequest, execute
        digests = sorted(self.cold)
        random.Random(f"serve-mixed-verify:{seed}").shuffle(digests)
        for digest in digests[:VERIFY_SAMPLE]:
            local = execute(RunRequest.from_dict(self.requests[digest]))
            expected = json.loads(json.dumps(local.outcome_dict()))
            if expected != self.cold[digest]:
                self.failed += 1
                self.problems.append(f"served outcome {digest[:12]} differs "
                                     f"from a local execute()")


class Sent(NamedTuple):
    """One request of the timed schedule (times are ``perf_counter``)."""

    step: int
    due: float
    sent: float
    received: float
    ok: bool
    digest: Optional[str]
    cached: bool
    #: How late the generator itself sent it: after it was due *and* a
    #: connection was free.
    lag: float

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1000.0


def _timed_schedule(port: int, sends, checker: Checker,
                    on_start=None) -> Dict[str, Any]:
    """Send *sends* open-loop over at most CONNECTIONS connections."""
    records: List[Optional[Sent]] = [None] * len(sends)
    cursor = [0]
    lock = threading.Lock()
    origin = time.perf_counter() + 0.2
    if on_start is not None:
        on_start()

    def sender() -> None:
        free_at = time.perf_counter()
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(sends):
                return
            offset, step, body = sends[index]
            due = origin + offset
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            try:
                status, payload = _post(port, body)
            except OSError as exc:
                status, payload = 599, {"error": str(exc)}
            received = time.perf_counter()
            ok = checker.check(body, status, payload)
            digest = payload.get("id") if payload else None
            cached = bool(payload.get("cached")) if payload else False
            records[index] = Sent(step, due, sent, received, ok, digest,
                                  cached, sent - max(due, free_at))
            free_at = received

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"origin": origin, "records": records}


def _summarize(run: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end numbers of one timed schedule, pooled and per rate."""
    records: List[Sent] = run["records"]
    latencies = [r.latency_ms for r in records]
    correct = sum(1 for r in records if r.ok)
    elapsed = max(r.received for r in records) - run["origin"]
    steps = []
    sustained = []
    for step, rate in enumerate(RATES):
        mine = [r for r in records if r.step == step]
        step_latency = [r.latency_ms for r in mine]
        tail = mine[-max(1, len(mine) // 10):]
        backlog = common.median([(r.sent - r.due) * 1000.0 for r in tail])
        p99 = common.percentile(step_latency, 99)
        ok = (p99 <= LATENCY_LIMIT_MS and backlog <= BACKLOG_LIMIT_MS
              and all(r.ok for r in mine))
        if ok:
            sustained.append(rate)
        steps.append({"rate_rps": rate, "samples": len(mine),
                      "latency_ms_p50": common.percentile(step_latency, 50),
                      "latency_ms_p99": p99, "backlog_ms": backlog,
                      "sustained": ok})
    lags = [r.lag * 1000.0 for r in records]
    # Cache reads and fresh runs differ about sixfold in cost, so a pooled
    # percentile reads the mix of the two; latency_ms is the mean of each
    # kind's median.  Their tails move with fsync and scheduling far more
    # than with the program, and stay in the record.
    kinds = {kind: [r.latency_ms for r in records
                    if r.cached is (kind == "hit")]
             for kind in ("hit", "miss")}
    kinds = {kind: latency for kind, latency in kinds.items() if latency}
    return {
        "latency_ms": sum(common.median(latency)
                          for latency in kinds.values()) / len(kinds),
        "runs_per_s": correct / elapsed,
        "run_ms_mean": sum(latencies) / len(latencies),
        "run_ms_p50": common.percentile(latencies, 50),
        "run_ms_p90": common.percentile(latencies, 90),
        "by_kind": {f"{kind}_ms_p{q}": common.percentile(latency, q)
                    for kind, latency in kinds.items() for q in (50, 90, 99)},
        "samples": len(latencies),
        "steps": steps,
        "max_rate_rps": max(sustained) if sustained else 0.0,
        "lag_ms_p99": common.percentile(lags, 99),
        "hit_responses": sum(1 for r in records if r.cached),
    }


def _warm(server: Server, stream: Stream, checker: Checker) -> List[int]:
    """Serve the working set once (cold runs); its work sums."""
    work = [0] * len(common.WORK_KEYS)
    for body in stream.working_set:
        status, payload = _post(server.port, body)
        if checker.check(body, status, payload):
            common.add_work(work, common.outcome_work(payload["outcome"]))
    return work


def _start(workdir: str, stream: Stream, checker: Checker, traced: bool
           ) -> Tuple[Server, float]:
    """A fresh server and the seconds from its launch to a correct reply."""
    started = time.perf_counter()
    server = Server(workdir, traced)
    try:
        body = stream.working_set[0]
        status, payload = server.first_response(body)
    except BaseException:
        server.stop()
        raise
    checker.check(body, status, payload)
    return server, time.perf_counter() - started


def _setup_only(workdir: str, stream: Stream, checker: Checker) -> float:
    server, setup_s = _start(workdir, stream, checker, traced=False)
    server.stop()
    return setup_s


def _session(workdir: str, stream: Stream, checker: Checker, seconds: float,
             traced: bool) -> Dict[str, Any]:
    """Start a server, warm it, run the timed schedule, stop it."""
    server, setup_s = _start(workdir, stream, checker, traced)
    try:
        fingerprint = _warm(server, stream, checker)
        sends = stream.schedule(seconds)
        on_start = (lambda: server.signal(signal.SIGUSR1)) if traced else None
        run = _timed_schedule(server.port, sends, checker, on_start)
        if traced:
            server.signal(signal.SIGUSR2)
        peak = server.peak_rss_mb()
    finally:
        summary = server.stop()
    result = _summarize(run)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = peak
    result["fingerprint"] = common.work_dict(fingerprint)
    result["trace"] = summary
    result["run"] = run
    return result


def _serve_layers(traced: Dict[str, Any], checker: Checker) -> Dict[str, Any]:
    """Per-layer numbers that need both sides: queue wait and write time."""
    summary = traced["trace"] or {}
    events = {(kind, rid): at for kind, rid, at in summary.get("events", [])}
    waits = [(events[("job_start", rid)] - at) * 1000.0
             for (kind, rid), at in events.items()
             if kind == "accepted" and ("job_start", rid) in events]
    writes = []
    for sent in traced["run"]["records"]:
        if not sent.cached and ("job_end", sent.digest) in events:
            writes.append(
                (sent.received - events[("job_end", sent.digest)]) * 1000.0)
    counts = summary.get("counts", {})
    lookups = counts.get("serve.cache.lookups", 0)
    return {
        "serve.cache.hit_ratio": (counts.get("serve.cache.hits", 0) / lookups
                                  if lookups else 0.0),
        "serve.queue.wait_ms_p99": common.percentile(waits, 99) if waits
        else 0.0,
        "serve.write.ms_p99": common.percentile(writes, 99) if writes
        else 0.0,
        "serve.rejects": checker.rejects,
    }


def lagging(record: Dict[str, Any]) -> List[str]:
    """Sessions whose generator fell behind its own schedule (invalid)."""
    return [f"{name}: generator lag p99 {record[name]['lag_ms_p99']:.1f} ms "
            f"> {LAG_LIMIT_MS} ms"
            for name in ("main", "untraced")
            if name in record and record[name]["lag_ms_p99"] > LAG_LIMIT_MS]


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run of serve-mixed; the record ``run.py`` reports."""
    common.OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=common.OUT)
    stream = Stream(seed)
    checker = Checker()
    record: Dict[str, Any] = {}
    try:
        if not trace:
            setups = [_setup_only(os.path.join(workdir, f"setup-{k}"),
                                  stream, checker)
                      for k in range(SETUP_SAMPLES - 1)]
            main = _session(os.path.join(workdir, "main"), stream, checker,
                            seconds, traced=False)
            record["setup_samples_s"] = setups + [main["setup_s"]]
            record["main"] = main
        else:
            plain = _session(os.path.join(workdir, "plain"), stream, checker,
                             seconds / 2, traced=False)
            traced = _session(os.path.join(workdir, "traced"), stream,
                              checker, seconds / 2, traced=True)
            record["untraced"] = plain
            record["main"] = traced
            record["serve_layers"] = _serve_layers(traced, checker)
        checker.verify_sample(seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for session in ("main", "untraced"):
        if session in record:
            record[session].pop("run", None)
    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["problems"] = checker.problems[:10]
    return record
