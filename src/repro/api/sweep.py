"""Durable sweeps: streaming execution with a JSONL checkpoint log.

A sweep of hundreds of agreement runs should survive a crash without
re-running what already finished.  :func:`iter_sweep` streams a
:class:`~repro.api.request.SweepSpec` through an executor and, when given a
checkpoint path, appends one JSON line per completed request **as it
finishes** (flushed immediately, so a killed process loses at most the run
in flight).  ``resume=True`` replays the log first: completed requests are
yielded from the log and skipped by the executor, and the merged report set
equals an uninterrupted run — exactly, when the sweep's seed policy is
``"derive"`` (per-request seeds are positional, not stateful).

Checkpoint format (one JSON object per line)::

    {"kind": "repro-sweep-checkpoint", "version": 1,
     "total": 12, "sweep_sha256": "..."}          # header line
    {"index": 0, "report": { ...RunReport... }}   # one line per completion
    {"index": 3, "report": { ... }}               # completion order, not
    ...                                           # submission order

The header pins the sweep's canonical SHA-256
(:func:`sweep_digest`), so resuming against a *different* sweep — edited
requests, another executor, a changed seed policy — fails loudly instead of
merging unrelated results.  A truncated final line (the crash happened
mid-write) is ignored on read and cut away when the log is reopened for
append; an unparseable line anywhere *earlier* is corruption and refused.  A
request checkpointed twice (e.g. a retried cell) resolves last-write-wins,
matching append order.

Durability is :class:`~repro.api.jsonl.DurableLog`'s: an atomic header,
one-write appends, ``fsync=True`` for power-loss durability.  This module
adds a bounded retry of failed completion appends, recorded in the report's
``metadata["resilience"]``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..runtime.chaos import chaos_scope
from ..runtime.errors import CheckpointWriteError, ConfigurationError
from ..runtime.supervision import RetryPolicy, checkpoint_retry_event
from .executors import ExecutorSpec, resolve_executor
from .jsonl import DurableLog
from .request import RunReport, SweepSpec

CHECKPOINT_KIND = "repro-sweep-checkpoint"
CHECKPOINT_VERSION = 1

logger = logging.getLogger("repro.sweep")

#: Bounded retry for completion appends (transient ENOSPC / EIO survive).
_WRITE_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01)


def sweep_digest(spec: SweepSpec) -> str:
    """The canonical SHA-256 of a sweep (what a checkpoint header pins)."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CheckpointScan:
    """What a checkpoint log actually holds: completions plus its health.

    ``duplicates`` counts superseded completion lines — a request
    checkpointed more than once means it *executed* more than once (a
    retried cell, or two sweeps appending to one log), which last-write-wins
    used to mask silently.  ``torn_tail`` records a truncated final line
    (crash mid-write), repaired away by :func:`compact_checkpoint`.
    """

    completed: Dict[int, RunReport] = field(default_factory=dict)
    duplicates: int = 0
    torn_tail: bool = False
    #: Structured warning events, one per anomaly — the vocabulary serve's
    #: journal replay reports through its recovery summary and /metrics.
    events: List[Dict[str, Any]] = field(default_factory=list)


def checkpoint_log(path: str, spec: SweepSpec,
                    fsync: bool = False) -> DurableLog:
    """The durable log behind a sweep checkpoint, pinned to *spec*."""
    return DurableLog(
        path, {"kind": CHECKPOINT_KIND, "version": CHECKPOINT_VERSION,
               "total": len(spec.requests),
               "sweep_sha256": sweep_digest(spec)},
        noun="a sweep checkpoint", subject="sweep", fsync=fsync,
        fault_site="checkpoint-write")


def scan_checkpoint(path: str, spec: SweepSpec) -> CheckpointScan:
    """Read a checkpoint log in full: completions, duplicates, torn tail.

    Validates the header against *spec* (kind, version, sweep digest) and
    tolerates a truncated final line.  An empty or missing file reads as no
    completions.  Every anomaly — a superseded duplicate completion, a torn
    tail — is logged as a structured warning and recorded on the returned
    :class:`CheckpointScan`, so replay paths (``--resume``, the serve
    journal) surface double execution instead of silently masking it.
    """
    scan = CheckpointScan()
    body = checkpoint_log(path, spec).read()
    if body is None:
        return scan
    scan.torn_tail = body.torn_tail
    total = len(spec.requests)
    for line_number, entry in body.entries:
        if not isinstance(entry, dict) or not isinstance(
                entry.get("report"), dict):
            raise ConfigurationError(
                f"{path} has a malformed completion line (expected an "
                f"object with \"index\" and \"report\"): line {line_number}")
        index = entry.get("index")
        if not isinstance(index, int) or not 0 <= index < total:
            raise ConfigurationError(
                f"{path} names request index {index!r}, outside this "
                f"sweep's 0..{total - 1}")
        if index in scan.completed:
            scan.duplicates += 1
            event = {"event": "duplicate-completion", "index": index,
                     "line": line_number, "path": path}
            scan.events.append(event)
            logger.warning(
                "checkpoint %s: request %d checkpointed more than once "
                "(line %d supersedes an earlier completion) — the request "
                "was executed at least twice; last write wins: %s",
                path, index, line_number, event)
        scan.completed[index] = RunReport.from_dict(entry["report"])
    if scan.torn_tail:
        event = {"event": "torn-tail", "path": path}
        scan.events.append(event)
        logger.warning(
            "checkpoint %s ends in a truncated line (crash mid-write); "
            "the torn tail was ignored and is cut on reopen: %s", path,
            event)
    return scan


def read_checkpoint(path: str, spec: SweepSpec) -> Dict[int, RunReport]:
    """The completed ``{index: report}`` entries of a checkpoint log.

    A thin wrapper over :func:`scan_checkpoint` keeping the historical
    mapping shape; use the scan directly to see duplicate and torn-tail
    diagnostics.
    """
    return scan_checkpoint(path, spec).completed


def compact_checkpoint(path: str, spec: SweepSpec) -> Dict[str, Any]:
    """Rewrite a checkpoint dropping superseded duplicates and any torn tail.

    The log keeps one line per completed request (the latest), ordered by
    index, under a fresh header — rewritten atomically so a crash during
    compaction leaves the original intact.  Returns a summary:
    ``{"completed": n, "duplicates_dropped": n, "torn_tail_repaired": bool}``.
    A missing or empty checkpoint compacts to nothing and returns zeros.
    """
    scan = scan_checkpoint(path, spec)
    stats = {"completed": len(scan.completed),
             "duplicates_dropped": scan.duplicates,
             "torn_tail_repaired": scan.torn_tail}
    if scan.duplicates or scan.torn_tail:
        checkpoint_log(path, spec).compact(
            {"index": index, "report": scan.completed[index].to_dict()}
            for index in sorted(scan.completed))
    return stats


def _append_completion(log: DurableLog, index: int,
                       report: RunReport) -> None:
    """Append one completion line, retrying transient failures bounded times.

    The log cuts a failed append back to its line start, so retries never
    leave partial lines; each retry records a :func:`checkpoint_retry_event`
    on the report's ``metadata["resilience"]``, which re-serializes into the
    retried line, making the recovery itself durable.
    """
    for attempt in range(1, _WRITE_RETRY.max_attempts + 1):
        try:
            log.append({"index": index, "report": report.to_dict()})
            return
        except CheckpointWriteError as failure:
            exc = failure.__cause__ or failure
            if attempt >= _WRITE_RETRY.max_attempts:
                raise CheckpointWriteError(
                    f"checkpoint {log.path} append for request {index} "
                    f"failed {attempt} times; last error: {exc}") from exc
            delay = _WRITE_RETRY.delay(f"checkpoint:{log.path}:{index}",
                                       attempt)
            report.metadata.setdefault("resilience", []).append(
                checkpoint_retry_event(attempt, exc, delay))
            time.sleep(delay)


def iter_sweep(spec: SweepSpec, checkpoint: Optional[str] = None,
               resume: bool = False, executor: ExecutorSpec = None,
               fsync: bool = False, chaos: object = None
               ) -> Iterator[Tuple[int, RunReport]]:
    """Stream a sweep's ``(index, report)`` pairs, checkpointing as they finish.

    Already-completed requests (``resume=True`` with an existing checkpoint)
    are yielded first, straight from the log; the rest stream from the
    executor in completion order.  *executor* overrides the spec's backend
    choice (an :class:`~repro.api.executors.Executor` instance or registry
    name); ``None`` builds the spec's own ``executor``/``executor_params``.

    ``fsync=True`` additionally fsyncs the checkpoint after the header and
    every completion append — durability against power loss, at a per-line
    syscall cost (the default ``flush`` already survives process death).
    *chaos* optionally activates a :class:`~repro.runtime.chaos.ChaosPolicy`
    (or controller, or plain policy data) for the sweep's duration.
    """
    requests = spec.resolved_requests()
    completed: Dict[int, RunReport] = {}
    if checkpoint and resume:
        completed = read_checkpoint(checkpoint, spec)
    for index in sorted(completed):
        yield index, completed[index]
    remaining = [(i, request) for i, request in enumerate(requests)
                 if i not in completed]
    if not remaining:
        return

    if executor is None and spec.executor:
        runner, owned = resolve_executor(spec.executor,
                                         dict(spec.executor_params))
    else:
        runner, owned = resolve_executor(executor)
    log = checkpoint_log(checkpoint, spec, fsync) if checkpoint else None
    with chaos_scope(chaos):
        try:
            if log is not None:
                if log.exists() and not resume:
                    # Never clobber an existing log: it may be the only
                    # record of a crashed sweep's completed requests.
                    raise ConfigurationError(
                        f"checkpoint {checkpoint} already exists; pass "
                        f"resume=True (repro sweep --resume) to continue it, "
                        f"or delete the file to start the sweep fresh")
                log.open()
            submitted = {}
            for index, request in remaining:
                submitted[runner.submit(request)] = index
            for ticket, report in runner.iter_reports():
                index = submitted[ticket]
                if log is not None:
                    _append_completion(log, index, report)
                yield index, report
        finally:
            if log is not None:
                log.close()
            if owned:
                runner.close()


def run_sweep(spec: SweepSpec, checkpoint: Optional[str] = None,
              resume: bool = False, executor: ExecutorSpec = None,
              fsync: bool = False, chaos: object = None
              ) -> List[RunReport]:
    """Run a sweep to completion and return its reports in request order."""
    reports: Dict[int, RunReport] = {}
    for index, report in iter_sweep(spec, checkpoint=checkpoint,
                                    resume=resume, executor=executor,
                                    fsync=fsync, chaos=chaos):
        reports[index] = report
    missing = [i for i in range(len(spec.requests)) if i not in reports]
    if missing:  # pragma: no cover - executors yield every submission
        raise ConfigurationError(
            f"sweep finished without reports for request(s) {missing}")
    return [reports[i] for i in range(len(spec.requests))]
