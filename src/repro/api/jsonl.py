"""The one durable-write path: append-only JSONL logs that survive ``kill -9``.

Three logs append one JSON object per line and must recover after a crash
at any byte: the sweep checkpoint (:mod:`repro.api.sweep`), the serve
journal (:mod:`repro.serve.journal`) and the Monte-Carlo checkpoint
(:mod:`repro.stats.campaign`).  Each is a :class:`DurableLog`, which owns
the whole discipline:

* **header** — ``{"kind", "version", ...pinned fields}`` on line one,
  created atomically (:func:`atomic_replace`), so a crash leaves either no
  log or a whole header, never a torn one;
* **validation** — one error vocabulary for a torn header, a foreign kind,
  another version, and a header pinned for a different sweep or campaign;
* **scan** — an entry is committed by its newline, so a **truncated final
  line** (unparseable, or missing its newline) is a crash artifact and is
  tolerated (the scan reports it); **unparseable bytes before the end** are
  corruption and raise :class:`~repro.runtime.errors.ConfigurationError`,
  because dropping that line would also drop every entry after it;
* **open for append** — first repairs a torn tail back to the last
  newline, so an append never lands on a partial line;
* **append** — one ``sort_keys`` line in one write, fsynced when the log's
  ``fsync`` is on; a failed append is cut back to the line's start and
  raises :class:`~repro.runtime.errors.CheckpointWriteError`;
* **compact** — an atomic rewrite that drops superseded lines and any
  torn tail.

Callers keep only their schema: which entries a line may hold, and how
duplicates resolve.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Optional, TextIO,
                    Tuple)

from ..runtime.chaos import current_chaos
from ..runtime.errors import CheckpointWriteError, ConfigurationError


@dataclass
class JsonlScan:
    """The parsed body of a JSONL log, crash tail acknowledged.

    ``entries`` holds ``(line_number, entry)`` pairs in file order (line
    numbers are 1-based over the whole file, header included); entries are
    whatever JSON the line held — shape validation belongs to the caller,
    which knows its own schema and error vocabulary.  ``torn_tail`` records
    whether the final line was a crash artifact (unparseable or missing its
    newline) the scan skipped.
    """

    entries: List[Tuple[int, Any]] = field(default_factory=list)
    torn_tail: bool = False


def scan_jsonl(path: str, lines: Iterable[str], *, first_line: int = 1,
               description: str = "log", terminated: bool = True
               ) -> JsonlScan:
    """Parse *lines* (already split, no newlines) tolerating a torn tail.

    *first_line* is the 1-based file line number of the first element of
    *lines*, so error messages point at the real file position even when the
    caller already consumed a header.  An entry is committed by its
    newline: when *terminated* is false the final line is a torn write even
    if it parses.
    """
    body = list(lines)
    scan = JsonlScan()
    for position, line in enumerate(body):
        if not line.strip():
            continue
        if position == len(body) - 1 and not terminated:
            scan.torn_tail = True
            break
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if position == len(body) - 1:
                scan.torn_tail = True
                break  # truncated final line: the crash happened mid-write
            raise ConfigurationError(
                f"{path} has an unparseable line before the end of the "
                f"{description} (line {position + first_line}): "
                f"{line[:80]!r}; the {description} is corrupt — repair or "
                f"delete it")
        scan.entries.append((position + first_line, entry))
    return scan


@contextmanager
def atomic_replace(path: str, fsync: bool = False) -> Iterator[TextIO]:
    """Write *path* through a sibling temp file renamed into place on success.

    A crash before the :func:`os.replace` leaves *path* untouched (at most
    a stray ``<path>.tmp.<pid>`` file); an exception removes the temp file
    and propagates.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class DurableLog:
    """One append-only JSONL log under a pinned header.

    *header* is the complete first line: ``kind`` and ``version`` plus any
    pinned fields (a sweep's or campaign's digest and size).  A log whose
    pinned fields differ was recorded for a different *subject* and is
    refused.  *noun* names the log in errors, article included ("a sweep
    checkpoint").  *fault_site* is the chaos site appends consult (see
    :mod:`repro.runtime.chaos`); its index counts this open's appends.

    Thread-safe: opening, appending, closing and compacting share one lock.
    """

    def __init__(self, path: str, header: Dict[str, Any], *, noun: str,
                 subject: str = "log", fsync: bool = False,
                 fault_site: Optional[str] = None) -> None:
        self.path = path
        self.header = header
        self.noun = noun
        self.subject = subject
        self.fsync = fsync
        self.fault_site = fault_site
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._size = 0
        self._appends = 0

    @property
    def description(self) -> str:
        """The noun without its article: ``"sweep checkpoint"``."""
        return self.noun.split(" ", 1)[1]

    def exists(self) -> bool:
        """Whether the log holds anything (an empty file is a fresh start)."""
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    # -- reading -------------------------------------------------------------
    def read(self) -> Optional[JsonlScan]:
        """Validate the header and scan the body; ``None`` when empty."""
        if not self.exists():
            return None
        with open(self.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        lines = text.splitlines()
        self._check_header(lines)
        return scan_jsonl(self.path, lines[1:], first_line=2,
                          description=self.description,
                          terminated=text.endswith("\n"))

    def _check_header(self, lines: List[str]) -> None:
        path, kind = self.path, self.header["kind"]
        try:
            found = json.loads(lines[0])
        except json.JSONDecodeError:
            if len(lines) == 1:
                raise ConfigurationError(
                    f"{path} has a torn header line and no entries "
                    f"(unreadable header line) — likely a crash while "
                    f"{self.noun} was being created; delete the file to "
                    f"start fresh") from None
            raise ConfigurationError(
                f"{path} is not {self.noun} (unreadable header line)"
            ) from None
        if not isinstance(found, dict) or found.get("kind") != kind:
            raise ConfigurationError(
                f"{path} is not {self.noun} (expected a {kind!r} header)")
        if found.get("version") != self.header["version"]:
            raise ConfigurationError(
                f"{path} is a version {found.get('version')} "
                f"{self.description}; this build reads version "
                f"{self.header['version']}")
        for key in sorted(self.header):
            if found.get(key) != self.header[key]:
                raise ConfigurationError(
                    f"{path} was recorded for a different {self.subject} "
                    f"({key} {str(found.get(key))[:12]}… in the log, "
                    f"{str(self.header[key])[:12]}… here); refusing to "
                    f"merge unrelated results")

    # -- appending -----------------------------------------------------------
    def open(self) -> None:
        """Open for append: create the header, or repair a torn tail first."""
        with self._lock:
            if self._fd is not None:
                return
            if self.exists():
                self._repair_tail()
            if not self.exists():
                self._replace((), fsync=self.fsync)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            self._size = os.fstat(self._fd).st_size
            self._appends = 0

    def _repair_tail(self) -> None:
        """Cut the file back to its last newline, dropping any torn line.

        A torn header with nothing after it leaves an empty file, which
        :meth:`open` then recreates.
        """
        with open(self.path, "rb+") as handle:
            data = handle.read()
            if data.endswith(b"\n"):
                return
            handle.truncate(data.rfind(b"\n") + 1)
            if self.fsync:
                os.fsync(handle.fileno())

    def append(self, entry: Dict[str, Any]) -> None:
        """Append *entry* as one line; on failure, cut it back and raise."""
        data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._fd is None:
                raise ConfigurationError(
                    f"{self.path}: the {self.description} is not open for "
                    f"append")
            try:
                self._inject_fault(data)
                self._write(data)
                if self.fsync:
                    os.fsync(self._fd)
            except OSError as exc:
                os.ftruncate(self._fd, self._size)
                raise CheckpointWriteError(
                    f"{self.description} {self.path} append failed: {exc}"
                ) from exc
            self._size += len(data)
            self._appends += 1

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]

    def _inject_fault(self, data: bytes) -> None:
        controller = current_chaos()
        if controller is None or self.fault_site is None:
            return
        faults = controller.take(self.fault_site, index=self._appends)
        if any(fault.kind == "journal-torn-write" for fault in faults):
            # A torn write IS the fault: leave the partial line a kill -9
            # mid-write leaves, and stop writing — dead writers repair
            # nothing; the next open does.
            self._write(data[:max(1, len(data) // 2)])
            os.close(self._fd)
            self._fd = None
            raise CheckpointWriteError(
                f"{self.description} {self.path} append failed: chaos: "
                f"simulated torn append")
        if faults:
            raise OSError("chaos: simulated append failure")

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # -- compaction ----------------------------------------------------------
    def compact(self, entries: Iterable[Dict[str, Any]]) -> None:
        """Atomically rewrite the log as the header plus *entries*.

        A missing or empty log stays as it is.
        """
        with self._lock:
            if self._fd is not None:
                raise ConfigurationError(
                    f"compact the {self.description} before opening it for "
                    f"append")
            if self.exists():
                self._replace(entries, fsync=True)

    def _replace(self, entries: Iterable[Dict[str, Any]],
                 fsync: bool) -> None:
        with atomic_replace(self.path, fsync=fsync) as handle:
            for entry in itertools.chain((self.header,), entries):
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
