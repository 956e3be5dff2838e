"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``eig-large``, ``hybrid-shift``, ``mc-small`` — closed loops through
  ``repro.api.execute`` / ``repro.stats.run_mc``, run by ``closed.py`` in
  fresh interpreters;
* ``serve-mixed`` — an open-loop HTTP schedule against ``repro serve``,
  run by ``loadgen.py``.

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` measures untraced and traced (``tracing.py``) side
by side and reports the per-layer metrics, the tracing overhead and the
work fingerprint.  Every output is checked (agreement, validity,
theorem bounds, campaign verdicts, served outcomes against local runs);
a wrong output counts as failed.

Standard output ends with two JSON lines: the full record (fingerprint of
the box, seed and code; every measured detail) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  The record is also
saved under ``perfbench/out/``; ``compare.py`` compares two of them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

import common

WORKLOADS = ("eig-large", "hybrid-shift", "mc-small", "serve-mixed")
CLOSED = ("eig-large", "hybrid-shift", "mc-small")
#: Fresh processes per run whose median start-to-first-result is setup_s.
SETUP_SAMPLES = 5

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
#: ``latency_ms`` is the time per run or request, read where it is steady
#: on a box whose speed drifts between a fast and a slower state:
#:
#: * closed loops — the 90th percentile of the time per run, per scenario
#:   (or campaign cell), averaged.  The median, the mean and the throughput
#:   follow the share of the run spent in each state, while the tail reads
#:   the slower state that nearly every run reaches;
#: * serve-mixed — the median latency from the due time, per kind (cache
#:   read, fresh run), averaged.  Its tails follow fsync and the scheduling
#:   of two processes on the box far more than the program.
#:
#: ``runs_per_s``, ``run_ms_mean``, ``run_ms_p50`` and ``run_ms_p90`` stay
#: in the saved record, as do serve's per-rate and per-kind percentiles.
END_TO_END = {"setup_s": "s", "latency_ms": "ms", "peak_rss_mb": "MB"}

#: Per-layer metrics beyond the ``<layer>.{busy_s,self_s,calls,share}``
#: family of ``tracing.LAYERS``: name -> unit.
EXTRA_LAYER_METRICS = {
    "api.planner.resolved.batched": "count",
    "api.planner.resolved.numpy": "count",
    "api.planner.resolved.fast": "count",
    "stats.checkpoint.lines": "count",
    "stats.checkpoint.bytes": "B",
    "serve.cache.hit_ratio": "ratio",
    "serve.queue.wait_ms_p99": "ms",
    "serve.write.ms_p99": "ms",
    "serve.rejects": "count",
    "loadgen.lag_ms_p99": "ms",
    "trace.overhead_ratio": "ratio",
    "work.entries": "count",
    "work.bits": "bit",
    "work.computation_units": "count",
    "work.discoveries": "count",
    "work.rounds": "count",
}

_FIELD_UNITS = {"busy_s": "s", "self_s": "s", "calls": "count",
                "share": "ratio"}


def per_layer_units() -> Dict[str, str]:
    from tracing import per_layer_names
    units = {name: _FIELD_UNITS[name.rsplit(".", 1)[1]]
             for name in per_layer_names()}
    units.update(EXTRA_LAYER_METRICS)
    return units


# -- closed loops -------------------------------------------------------------
def _worker(workload: str, seed: int, seconds: float, mode: str,
            timeout: float) -> Tuple[float, Dict[str, Any]]:
    """Run ``closed.py`` fresh: (seconds to its first result, record)."""
    command = [sys.executable, str(common.ROOT / "perfbench" / "closed.py"),
               workload, str(seed), str(seconds), mode]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=common.ROOT,
                               env=common.child_env(),
                               stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        ready = None
        lines: List[str] = []
        for line in process.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            else:
                lines.append(line)
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0 or ready is None:
        raise RuntimeError(f"{workload} worker ({mode}) exited with "
                           f"{process.returncode}: {''.join(lines)[-800:]}")
    record = json.loads(lines[-1]) if mode != "setup" else {}
    return ready, record


def run_closed(workload: str, seed: int, seconds: float, trace: bool
               ) -> Dict[str, Any]:
    """A closed-loop run, in the record shape ``loadgen.run`` returns."""
    timeout = seconds + 120.0
    setups: List[float] = []
    if not trace:
        setups = [_worker(workload, seed, seconds, "setup", timeout)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
    ready, record = _worker(workload, seed, seconds,
                            "trace" if trace else "run", timeout)
    sessions = [record[name] for name in ("first", "main", "untraced")
                if name in record]
    record["setup_samples_s"] = setups + [ready]
    record["attempted"] = sum(s["attempted"] for s in sessions)
    record["failed"] = sum(s["failed"] for s in sessions)
    record["problems"] = [p for s in sessions for p in s["problems"]]
    return record


def result_of(record: Dict[str, Any], trace: bool
              ) -> Tuple[int, int, Dict[str, float], List[str]]:
    """(attempted, failed, metrics, problems) of a run's record."""
    main = record["main"]
    attempted, failed = record["attempted"], record["failed"]
    problems = list(record["problems"])
    if not trace:
        metrics = {name: main[name] for name in ("latency_ms", "peak_rss_mb")}
        metrics["setup_s"] = common.median(record["setup_samples_s"])
        return attempted, failed, metrics, problems
    untraced = record["untraced"]
    summary = main["trace"] or {}
    if not summary or summary["leftover_wrappers"]:
        failed += 1
        problems.append(f"the tracer wrote no summary or left wrappers "
                        f"installed: {summary.get('leftover_wrappers')}")
    if untraced["fingerprint"] != main["fingerprint"]:
        failed += 1
        problems.append("traced and untraced work fingerprints differ")
    metrics = dict(summary.get("layers", {}))
    counts = summary.get("counts", {})
    for name in EXTRA_LAYER_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics.update(record.get("serve_layers", {}))
    metrics["stats.checkpoint.lines"] = main.get("checkpoint_lines", 0)
    metrics["stats.checkpoint.bytes"] = main.get("checkpoint_bytes", 0)
    metrics["loadgen.lag_ms_p99"] = main.get("lag_ms_p99", 0.0)
    metrics["trace.overhead_ratio"] = (
        main["run_ms_mean"] / untraced["run_ms_mean"] - 1.0)
    metrics.update(main["fingerprint"])
    return attempted, failed, metrics, problems


# -- entry point --------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program source at {common.SRC}/repro; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    invalid: List[str] = []
    if args.workload in CLOSED:
        record = run_closed(args.workload, args.seed, args.seconds, trace)
    else:
        import loadgen
        record = loadgen.run(args.seed, args.seconds, trace)
        invalid = loadgen.lagging(record)
    attempted, failed, metrics, problems = result_of(record, trace)
    units = per_layer_units() if trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    full = {"fingerprint": common.fingerprint(args.workload, args.seed),
            "seconds": args.seconds, "trace": trace, "valid": not invalid,
            "invalid_reasons": invalid, "attempted": attempted,
            "failed": failed, "failed_ratio": failed / max(1, attempted),
            "problems": problems[:10], "metrics": metrics, "detail": record}
    common.OUT.mkdir(parents=True, exist_ok=True)
    saved = common.OUT / (f"result-{args.workload}-seed{args.seed}-"
                          f"trace{args.trace}.json")
    saved.write_text(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps({"record": full}, sort_keys=True))
    if invalid:
        print("perfbench: run invalid, the load generator fell behind: "
              + "; ".join(invalid), file=sys.stderr)
        return 3
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
