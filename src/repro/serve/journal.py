"""The serve journal: accepted-before-execution, replayed on restart.

Self-stabilization (Dolev; Dijkstra's stabilizing token rings in
unsupportive environments) sets the design bar for the serving layer: the
service must *converge back* to a correct state from any crash point, not
merely avoid crashing.  The mechanism is write-ahead journaling in the same
crash-tolerant JSONL discipline as the sweep checkpoint
(:mod:`repro.api.jsonl`): every admitted request is appended as an
``accepted`` entry **before** it executes, and every finished run as a
``completed`` entry, each line flushed immediately::

    {"kind": "repro-serve-journal", "version": 1}        # atomic header
    {"event": "accepted", "id": "<digest>", "request": { ...RunRequest... }}
    {"event": "completed", "id": "<digest>", "outcome": { ...outcome_dict... }}

After a ``kill -9``, :meth:`ServeJournal.replay` reconstructs exactly where
the service was: ``completed`` entries warm-start the result cache
(identical queries become cache hits, no re-execution), ``accepted``
entries with no completion re-enqueue (runs are deterministic in
``(request, seed)``, so re-execution serves byte-identical outcomes), a
torn final line — the append the crash interrupted — is tolerated, and
cut away by compaction or by reopening for append, and duplicate
completions are surfaced as a ``duplicates`` count (the same
double-execution accounting as :func:`repro.api.sweep.scan_checkpoint`)
instead of being silently merged.

Journal appends are deliberately **fail-stop**: a failed append raises
:class:`~repro.runtime.errors.CheckpointWriteError` so the service degrades
loudly rather than accepting work it cannot make durable.  The chaos kind
``journal-torn-write`` exercises the worst case — a partial line hits the
disk and the writer dies mid-append.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api.jsonl import DurableLog
from ..api.request import RunRequest
from ..runtime.errors import ConfigurationError

JOURNAL_KIND = "repro-serve-journal"
JOURNAL_VERSION = 1


@dataclass
class JournalReplay:
    """Everything a restarted service recovers from its journal.

    ``completed`` maps request digests to their cached outcome dicts;
    ``pending`` holds the accepted-but-never-completed requests, in
    acceptance order, to re-enqueue.  ``duplicates`` counts superseded
    completion lines (double execution, reported — never masked) and
    ``torn_tail`` whether the crash interrupted an append mid-line.
    """

    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    pending: List[Tuple[str, RunRequest]] = field(default_factory=list)
    duplicates: int = 0
    torn_tail: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        return {"completed": len(self.completed),
                "pending": len(self.pending),
                "duplicates": self.duplicates,
                "torn_tail": self.torn_tail}


def _parse_journal(log: DurableLog) -> "JournalReplay":
    """Scan *log* into a :class:`JournalReplay` (no file means empty)."""
    replay = JournalReplay()
    scan = log.read()
    if scan is None:
        return replay
    path = log.path
    replay.torn_tail = scan.torn_tail
    accepted: Dict[str, RunRequest] = {}
    order: List[str] = []
    for line_number, entry in scan.entries:
        if not isinstance(entry, dict) or not isinstance(
                entry.get("id"), str):
            raise ConfigurationError(
                f"{path} has a malformed journal line (expected an object "
                f"with \"event\" and \"id\"): line {line_number}")
        event, digest = entry.get("event"), entry["id"]
        if event == "accepted":
            if not isinstance(entry.get("request"), dict):
                raise ConfigurationError(
                    f"{path} line {line_number}: an accepted entry needs a "
                    f"\"request\" object")
            if digest not in accepted:
                order.append(digest)
            accepted[digest] = RunRequest.from_dict(entry["request"])
        elif event == "completed":
            if not isinstance(entry.get("outcome"), dict):
                raise ConfigurationError(
                    f"{path} line {line_number}: a completed entry needs an "
                    f"\"outcome\" object")
            if digest in replay.completed:
                replay.duplicates += 1
                replay.events.append(
                    {"event": "duplicate-completion", "id": digest,
                     "line": line_number, "path": path})
            replay.completed[digest] = entry["outcome"]
        else:
            raise ConfigurationError(
                f"{path} line {line_number} has unknown journal event "
                f"{event!r} (expected \"accepted\" or \"completed\")")
    if replay.torn_tail:
        replay.events.append({"event": "torn-tail", "path": path})
    replay.pending = [(digest, accepted[digest]) for digest in order
                      if digest not in replay.completed]
    return replay


class ServeJournal:
    """Append-only durable intent log for the agreement service.

    Thread-safe: admission appends from the event loop while workers append
    completions, and the underlying :class:`~repro.api.jsonl.DurableLog`
    serializes every write under one lock.  The header is created
    atomically on first open, and existing journals are re-opened for
    append (torn tail cut first) after :meth:`replay` has consumed them.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._log = DurableLog(
            path, {"kind": JOURNAL_KIND, "version": JOURNAL_VERSION},
            noun="a serve journal", fsync=fsync, fault_site="journal-write")

    # -- recovery ------------------------------------------------------------
    def replay(self) -> JournalReplay:
        """Read the journal back; call before :meth:`open` on restart."""
        return _parse_journal(self._log)

    def compact(self, replay: Optional[JournalReplay] = None
                ) -> Dict[str, Any]:
        """Rewrite the journal minimal and clean: torn tail and duplicates gone.

        Keeps one ``accepted`` line per still-pending request and one
        ``completed`` line per finished one (acceptance entries for
        completed requests are superseded by their completion and dropped).
        Atomic, like checkpoint compaction.  Returns the replay summary.
        """
        state = replay if replay is not None else self.replay()
        entries: List[Dict[str, Any]] = []
        for digest, request in state.pending:
            entries.append({"event": "accepted", "id": digest,
                            "request": request.to_dict()})
        for digest in sorted(state.completed):
            entries.append({"event": "completed", "id": digest,
                            "outcome": state.completed[digest]})
        self._log.compact(entries)
        return state.summary()

    # -- appending -----------------------------------------------------------
    def open(self) -> None:
        self._log.open()

    def close(self) -> None:
        self._log.close()

    def accepted(self, digest: str, request: RunRequest) -> None:
        """Journal an admitted request — called **before** it executes."""
        self._log.append({"event": "accepted", "id": digest,
                          "request": request.to_dict()})

    def completed(self, digest: str, outcome: Dict[str, Any]) -> None:
        """Journal a finished run's outcome (the cache warm-start record)."""
        self._log.append({"event": "completed", "id": digest,
                          "outcome": outcome})
