"""Closed-loop workloads, each run in a fresh interpreter by ``run.py``.

One client calls the public API in a loop, sending the next operation only
when the previous one returned:

* ``eig-large`` — ``repro.api.execute`` on the Exponential Algorithm at
  n=16, t=5 (``engine="auto"`` → batched);
* ``hybrid-shift`` — ``execute`` on ``hybrid(b=3)`` at n=16, t=5 (auto →
  the per-processor numpy engine);
* ``mc-small`` — one ``repro.stats.run_mc`` campaign, sized to the run's
  length, with the serial executor and a checkpoint file: two small cells
  with randomized fault placement.

Usage (started by ``run.py``)::

    python3 perfbench/closed.py WORKLOAD SEED SECONDS MODE

``MODE`` is ``setup`` (print ``READY`` after the first result and exit),
``run`` (set up, then measure for SECONDS) or ``trace`` (set up, then for
SECONDS run each operation untraced and again traced; mc-small runs its
campaign untraced and then traced, so a traced run takes twice as long).  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

import common

common.use_source()

#: The worst-case scenario battery both large-n workloads cycle through.
SCENARIOS = ("faulty-source-allies", "faulty-source-stealth",
             "minimal-exposure", "staggered-crash")

#: Operations every phase runs at least, whatever its length: the prefix of
#: the operation stream whose work sums form the fingerprint.  An mc-small
#: phase is one campaign.
FINGERPRINT_OPS = {"eig-large": 1, "hybrid-shift": 2, "mc-small": 1}

#: mc-small campaign size: trials per cell for each second of the phase, so
#: that one campaign takes about the phase's length on a 2-vCPU x86 box
#: (about 1.1k and 0.6k trials/s on the two cells), rounded to whole
#: chunks so that no chunk mixes the cells.
MC_TRIALS_PER_SECOND = 400
#: ``McSpec``'s default chunk size, which ``repro mc`` also uses.
MC_CHUNK = 256
#: Trials per cell of the set-up campaign: one chunk.
MC_SETUP_TRIALS = 128


class Op:
    """What one operation of the stream produced."""

    __slots__ = ("attempted", "failed", "work", "seconds", "samples",
                 "problems", "checkpoint_lines", "checkpoint_bytes")

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.work = [0] * len(common.WORK_KEYS)
        self.seconds = 0.0
        #: (group, seconds, runs) per latency sample, where a group is a
        #: scenario of the battery or a campaign cell.
        self.samples: List[Tuple[int, float, int]] = []
        self.problems: List[str] = []
        self.checkpoint_lines = self.checkpoint_bytes = 0

    def check(self, reports, bounds) -> None:
        """Count *reports* and their work; a report that fails a check
        counts as failed.  *bounds* maps (n, t) to the theorem row."""
        for report in reports:
            self.attempted += 1
            problems = common.report_problems(report,
                                              bounds[(report.n, report.t)])
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            common.add_work(self.work, common.report_work(report))


class ExecuteLoop:
    """``execute()`` on one protocol at n=16, t=5: one pass of the battery
    per operation; one latency sample per run, grouped by scenario."""

    fills_phase = False

    def __init__(self, protocol: str, params: Dict[str, Any],
                 seed: int) -> None:
        import repro.api
        from repro.api import RunRequest, derive_seed
        # Looked up at call time, so the traced phase calls the wrapper.
        self.api = repro.api
        self.requests = [
            RunRequest(protocol=protocol, protocol_params=params, n=16, t=5,
                       initial_value=1, scenario=scenario,
                       battery="worst-case",
                       seed=derive_seed(seed, index))
            for index, scenario in enumerate(SCENARIOS)]
        self.bounds = {(16, 5): common.bound_for(protocol, params, 16, 5)}

    def first(self) -> List[str]:
        """The first run alone (what set-up time waits for); its problems."""
        op = Op()
        op.check([self.api.execute(self.requests[0])], self.bounds)
        return op.problems

    def run(self, index: int, tracer=None) -> Op:
        op = Op()
        reports = []
        for group, request in enumerate(self.requests):
            started = time.perf_counter()
            reports.append(self.api.execute(request))
            op.samples.append((group, time.perf_counter() - started, 1))
        op.seconds = sum(seconds for _, seconds, _ in op.samples)
        op.check(reports, self.bounds)
        return op

    def close(self) -> None:
        pass


class McLoop:
    """One ``run_mc`` campaign per phase, sized to the phase's length, with
    a fresh checkpoint; one latency sample per chunk, grouped by cell."""

    fills_phase = True

    def __init__(self, seed: int, seconds: float) -> None:
        import repro.stats
        from repro.api import SerialExecutor, derive_seed
        from repro.stats import McCell, McSpec
        # Looked up at call time, so the traced phase calls the wrapper.
        self.stats = repro.stats
        self.derive_seed = derive_seed
        self.seed = seed
        self.trials = MC_CHUNK * max(
            1, round(MC_TRIALS_PER_SECOND * seconds / MC_CHUNK))
        self.cells = (
            McCell(protocol="exponential", n=7, t=2, adversary="two-faced"),
            McCell(protocol="algorithm-b", protocol_params={"b": 2}, n=9,
                   t=2, adversary="random-liar"))
        self.McSpec = McSpec
        self.bounds = {(cell.n, cell.t): common.bound_for(
            cell.protocol, cell.protocol_params, cell.n, cell.t)
            for cell in self.cells}
        self.workdir = tempfile.mkdtemp(prefix="mc-", dir=common.OUT)
        #: The current chunk's reports, checked once the chunk is folded.
        self.pending: List[Any] = []
        pending = self.pending

        class KeptSerial(SerialExecutor):
            """The serial executor, keeping each report it yields."""

            def iter_reports(self):
                for index, report in super().iter_reports():
                    pending.append(report)
                    yield index, report

        self.executor_class = KeptSerial

    def first(self) -> List[str]:
        """A one-chunk campaign (what set-up time waits for); its problems."""
        return self._campaign(0, MC_SETUP_TRIALS, None).problems

    def run(self, index: int, tracer=None) -> Op:
        return self._campaign(index, self.trials, tracer)

    def _campaign(self, index: int, trials: int, tracer) -> Op:
        """Run one campaign.  After each chunk the progress hook checks the
        chunk's reports with the clock and the tracer paused, so neither
        the samples nor the traced spans include the benchmark's checks."""
        op = Op()
        spec = self.McSpec(cells=self.cells, trials=trials,
                           sweep_seed=self.derive_seed(self.seed, index),
                           executor="serial", chunk_size=MC_CHUNK)
        checkpoint = os.path.join(self.workdir, f"campaign-{index}.jsonl")
        executor = self.executor_class()
        pause = tracer.paused if tracer is not None else contextlib.nullcontext
        clock = {"mark": 0.0, "done": 0, "paused": 0.0}

        def progress(chunk: int, done: int, total: int) -> None:
            now = time.perf_counter()
            op.samples.append((spec.cell_index(done - 1),
                               now - clock["mark"], done - clock["done"]))
            clock["done"] = done
            with pause():
                op.check(self.pending, self.bounds)
                self.pending.clear()
            clock["mark"] = time.perf_counter()
            clock["paused"] += clock["mark"] - now

        clock["mark"] = started = time.perf_counter()
        try:
            result = self.stats.run_mc(spec, checkpoint=checkpoint,
                                       executor=executor, progress=progress)
        finally:
            executor.close()
            self.pending.clear()
        op.seconds = time.perf_counter() - started - clock["paused"]
        if not result.ok:
            op.problems.extend(result.problems or ["campaign incomplete"])
            op.failed = op.attempted  # the verdict covers every trial
        with open(checkpoint, "rb") as handle:
            data = handle.read()
        op.checkpoint_lines = data.count(b"\n")
        op.checkpoint_bytes = len(data)
        os.unlink(checkpoint)
        return op

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_loop(workload: str, seed: int, seconds: float):
    """The workload's operation stream; *seconds* is a phase's length."""
    if workload == "eig-large":
        return ExecuteLoop("exponential", {}, seed)
    if workload == "hybrid-shift":
        return ExecuteLoop("hybrid", {"b": 3}, seed)
    if workload == "mc-small":
        return McLoop(seed, seconds)
    raise SystemExit(f"unknown closed-loop workload {workload!r}")


class Phase:
    """Counts, latencies and the fingerprint of one phase.

    Latencies are kept per group (the scenario, or the campaign cell), and
    a percentile of the phase is the mean of the groups' percentiles: every
    group weighs the same whatever its runs cost, as it does in the
    workload, and a percentile reads the box's state, not the group mix.
    """

    def __init__(self, prefix: int) -> None:
        self.prefix = prefix
        self.ops = self.attempted = self.failed = 0
        self.seconds = 0.0
        self.latencies: Dict[int, List[float]] = {}
        self.problems: List[str] = []
        self.work = [0] * len(common.WORK_KEYS)
        self.checkpoint_lines = self.checkpoint_bytes = 0

    def add(self, op: Op) -> None:
        if self.ops < self.prefix:
            common.add_work(self.work, op.work)
        self.ops += 1
        self.attempted += op.attempted
        self.failed += op.failed
        self.seconds += op.seconds
        # Each sample is its mean time per run.
        for group, seconds, runs in op.samples:
            self.latencies.setdefault(group, []).append(seconds / max(1, runs))
        self.problems.extend(op.problems[:3])
        self.checkpoint_lines += op.checkpoint_lines
        self.checkpoint_bytes += op.checkpoint_bytes

    def record(self) -> Dict[str, Any]:
        correct = self.attempted - self.failed
        return {"ops": self.ops, "attempted": self.attempted,
                "failed": self.failed, "seconds": self.seconds,
                "problems": self.problems[:10],
                "fingerprint": common.work_dict(self.work),
                "checkpoint_lines": self.checkpoint_lines,
                "checkpoint_bytes": self.checkpoint_bytes,
                "runs_per_s": correct / self.seconds,
                "run_ms_mean": 1000.0 * self.seconds / max(1, self.attempted),
                "latency_ms": self.percentile_ms(90),
                "run_ms_p50": self.percentile_ms(50),
                "run_ms_p90": self.percentile_ms(90),
                "samples": sum(map(len, self.latencies.values()))}

    def percentile_ms(self, q: float) -> float:
        groups = self.latencies.values()
        return 1000.0 * sum(common.percentile(values, q)
                            for values in groups) / len(groups)


def run_phase(loop, workload: str, seconds: float, tracer=None
              ) -> Tuple[Phase, Phase]:
    """Run the operation stream from its start for *seconds* (and at least
    the fingerprint prefix); a loop whose operation fills the phase runs
    just the prefix.

    With a *tracer*, every operation runs twice in a row, untraced and then
    traced, so both halves see the same box conditions and the same work.
    """
    prefix = FINGERPRINT_OPS[workload]
    plain, traced = Phase(prefix), Phase(prefix)
    started = time.perf_counter()
    index = 0
    while index < prefix or (not loop.fills_phase and
                             time.perf_counter() - started < seconds):
        plain.add(loop.run(index))
        if tracer is not None:
            with tracer:
                tracer.set_request(index)
                traced.add(loop.run(index, tracer))
        index += 1
    return plain, traced


def main(argv: List[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), \
        argv[3]
    common.OUT.mkdir(parents=True, exist_ok=True)
    loop = make_loop(workload, seed, seconds)
    try:
        problems = loop.first()
        print("READY", flush=True)
        if mode == "setup":
            return 0
        if mode == "run":
            main = run_phase(loop, workload, seconds)[0].record()
            record: Dict[str, Any] = {"main": main}
        else:
            from tracing import Tracer, leftover_wrappers
            tracer = Tracer()
            plain, traced = run_phase(loop, workload, seconds, tracer)
            main = traced.record()
            main["trace"] = tracer.summary()
            main["trace"]["leftover_wrappers"] = leftover_wrappers()
            main["trace"]["spans_written"] = tracer.write_spans(
                os.path.join(common.OUT, f"spans-{workload}.ndjson"))
            record = {"main": main, "untraced": plain.record()}
        main["peak_rss_mb"] = common.peak_rss_mb_self()
        record["first"] = {"attempted": 1, "failed": int(bool(problems)),
                           "problems": problems[:5]}
        print(json.dumps(record))
        return 0
    finally:
        loop.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
