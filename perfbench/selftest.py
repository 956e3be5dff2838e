"""The benchmark's own tests, in short mode (about a minute in all).

    python3 -m pytest -q perfbench/selftest.py

Not named ``test_*.py`` on purpose: they start servers and fresh
interpreters, so they stay out of the repository's tier-1 run and are run
by path.  Each workload runs for a few operations, untraced and traced, and
the tests check that:

* the result names every metric of ``BENCHMARK.json`` with its unit, and
  every output was correct;
* the traced run reports each layer on the workload that exercises it, and
  zero on the workload that bypasses it;
* every wrapper the tracer installs is gone afterwards — calls into
  ``repro`` after tracing reach the original functions;
* time the benchmark pauses the tracer for (its own checks) stays out of
  the spans and the traced wall time;
* the work fingerprint repeats exactly for a repeated seed and between the
  traced and untraced halves of a run;
* ``compare.py`` refuses results from different boxes, and flags changed
  work;
* without the program's source the benchmark exits non-zero, printing no
  result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import compare  # noqa: E402

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
SHORT_SECONDS = "2"
SEED = 7


def _run(workload: str, trace: int, cwd: Path = common.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", SHORT_SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


_CACHE = {}


def short_run(workload: str, trace: int, repeat: int = 0):
    """(record, result) of one short run, each run once per session."""
    key = (workload, trace, repeat)
    if key not in _CACHE:
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr[-2000:]
        lines = done.stdout.strip().splitlines()
        _CACHE[key] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    return _CACHE[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_names_every_metric_with_its_unit(workload, trace):
    _, result = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


#: (workload, layers it must enter, layers it must not enter)
LAYER_EXPECTATIONS = [
    ("eig-large",
     ["runtime.batched.gather", "runtime.batched.discover",
      "runtime.batched.convert", "runtime.batched.claims",
      "core.npsupport.tallies", "adversary", "api.execute", "api.planner",
      "api.report", "runtime.metrics"],
     ["core.perproc.outgoing", "core.perproc.gather", "stats.fold",
      "serve.execute"]),
    ("hybrid-shift",
     ["core.perproc.outgoing", "core.perproc.incoming", "core.perproc.gather",
      "core.perproc.discover", "core.perproc.convert",
      "runtime.network.deliver", "adversary"],
     ["runtime.batched.gather", "runtime.batched.claims", "stats.fold"]),
    ("mc-small",
     ["stats.campaign", "stats.fold", "api.planner", "api.report",
      "adversary", "runtime.batched.claims", "runtime.metrics"],
     ["core.perproc.outgoing", "serve.admit"]),
    ("serve-mixed",
     ["serve.admit", "serve.digest", "serve.cache.get", "serve.cache.put",
      "serve.accept", "serve.journal.append", "serve.execute",
      "runtime.batched.gather"],
     ["core.perproc.outgoing", "stats.campaign"]),
]


@pytest.mark.parametrize("workload,entered,bypassed", LAYER_EXPECTATIONS)
def test_traced_run_reports_each_layer(workload, entered, bypassed):
    _, result = short_run(workload, 1)
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    for layer in entered:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.busy_s"] > 0, layer
        assert 0 <= metrics[f"{layer}.self_s"] \
            <= metrics[f"{layer}.busy_s"] + 1e-9, layer
    for layer in bypassed:
        assert metrics[f"{layer}.calls"] == 0, layer
    assert metrics["work.rounds"] > 0 and metrics["work.entries"] > 0
    if workload == "mc-small":
        assert metrics["stats.checkpoint.lines"] > 0
        assert metrics["api.planner.resolved.batched"] > 0
    if workload == "serve-mixed":
        assert 0 < metrics["serve.cache.hit_ratio"] < 1
        assert metrics["serve.write.ms_p99"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_fingerprint_repeats(workload):
    def fingerprint(record, session="main"):
        return record["detail"][session]["fingerprint"]

    first, _ = short_run(workload, 0)
    again, _ = short_run(workload, 0, repeat=1)
    traced, _ = short_run(workload, 1)
    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(traced) == fingerprint(traced, "untraced")
    assert fingerprint(traced) == fingerprint(first)
    assert all(value > 0 for value in fingerprint(first).values())


def test_tracer_removes_every_wrapper():
    common.use_source()
    from tracing import Tracer, leftover_wrappers
    from repro.api import RunRequest, execute, facade, planner
    from repro.core import npsupport
    from repro.core.shifting import ShiftingEIGProcessor
    originals = (facade.execute, planner.plan_run, npsupport.window_tallies,
                 ShiftingEIGProcessor.__dict__["outgoing"])
    request = RunRequest(protocol="hybrid", protocol_params={"b": 3}, n=10,
                         t=3, initial_value=1,
                         scenario="faulty-source-allies",
                         battery="worst-case")
    tracer = Tracer()
    with tracer:
        traced_report = execute(request)
    spans = tracer.span_count()
    assert spans > 0
    assert leftover_wrappers() == []
    assert (facade.execute, planner.plan_run, npsupport.window_tallies,
            ShiftingEIGProcessor.__dict__["outgoing"]) == originals
    plain_report = execute(request)
    assert tracer.span_count() == spans
    assert plain_report.outcome_dict() == traced_report.outcome_dict()


def test_paused_time_stays_out_of_spans():
    common.use_source()
    import time
    from tracing import Tracer
    import repro.stats
    from repro.stats import McCell, McSpec
    spec = McSpec(cells=(McCell(protocol="exponential", n=4, t=1,
                                adversary="two-faced"),),
                  trials=2, sweep_seed=1, executor="serial", chunk_size=1)
    tracer = Tracer()

    def progress(chunk, done, total):
        with tracer.paused():
            time.sleep(0.2)

    with tracer:
        assert repro.stats.run_mc(spec, progress=progress).ok
    metrics = tracer.layer_metrics()
    assert metrics["stats.campaign.calls"] == 1
    assert metrics["stats.campaign.busy_s"] < 0.2
    assert metrics["stats.campaign.self_s"] < 0.2
    assert tracer.wall_s < 0.2


def test_compare_refuses_other_boxes_and_flags_changed_work():
    record, _ = short_run("mc-small", 0)
    assert compare.refusal(record, record) == []
    other = copy.deepcopy(record)
    other["fingerprint"]["box"]["nproc"] = record["fingerprint"]["box"][
        "nproc"] + 1
    assert compare.refusal(record, other)
    traced, _ = short_run("mc-small", 1)
    assert compare.refusal(traced, record)
    changed = copy.deepcopy(traced)
    changed["metrics"]["work.rounds"] += 1
    assert compare.work_changes(traced, traced) == []
    assert compare.work_changes(traced, changed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("hybrid-shift", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
