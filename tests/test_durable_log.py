"""The shared durable log: torn-tail repair, byte-boundary recovery, formats.

Sweep checkpoints, the serve journal and Monte-Carlo checkpoints all write
through :class:`repro.api.jsonl.DurableLog`.  These tests pin what that
buys:

* a log whose last line a kill tore is repaired when it is reopened, so a
  resume appends onto a clean line and every later read still succeeds;
* for each of the three formats, cutting a valid log at every byte offset
  of its last line (or leaving a stray header temp file) and then
  resuming or replaying recovers exactly the intact prefix, and a second
  reopen finds nothing left to repair;
* logs written before the shared log existed (``tests/fixtures/durable``)
  replay identically, and compacting a clean one reproduces its bytes.
"""

import json
import os
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.api import RunRequest
from repro.api.jsonl import DurableLog
from repro.api.request import SweepSpec
from repro.api.sweep import (checkpoint_log, compact_checkpoint,
                             read_checkpoint, run_sweep, scan_checkpoint)
from repro.core.engine import numpy_available
from repro.runtime.errors import CheckpointWriteError, ConfigurationError
from repro.serve import AgreementService, ServeJournal
from repro.stats import McCell, McSpec, read_mc_checkpoint, run_mc
from repro.stats.campaign import mc_checkpoint_log

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "durable")


def tiny_request(**overrides):
    fields = dict(protocol="exponential", n=4, t=1, initial_value=1,
                  faulty=(3,), adversary="two-faced", seed=3)
    fields.update(overrides)
    return RunRequest(**fields)


def sweep_spec():
    return SweepSpec(requests=(tiny_request(), tiny_request(seed=4),
                               tiny_request(initial_value=0, seed=5)),
                     executor="serial")


def mc_spec():
    return McSpec(cells=(McCell(protocol="exponential", n=4, t=1),),
                  trials=6, sweep_seed=2, chunk_size=2)


def last_line_bounds(data):
    """``(start, end)`` of the final newline-terminated line of *data*."""
    assert data.endswith(b"\n")
    return data.rfind(b"\n", 0, len(data) - 1) + 1, len(data)


def lines_of(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def assert_clean(log):
    """A reopen finds nothing to repair, and the log reads back whole."""
    with open(log.path, "rb") as handle:
        before = handle.read()
    log.open()
    log.close()
    with open(log.path, "rb") as handle:
        assert handle.read() == before
    assert before.endswith(b"\n")
    assert not log.read().torn_tail


# ---------------------------------------------------------------------------
# The regression: a torn tail, then a resume, then any later read.
# ---------------------------------------------------------------------------

class TestTornTailThenResume:
    def test_sweep_checkpoint_reads_back_clean(self, tmp_path):
        spec = sweep_spec()
        path = str(tmp_path / "sweep.jsonl")
        expected = run_sweep(spec, checkpoint=path)
        lines = lines_of(path)
        # Killed mid-way through the second completion, two runs unlogged:
        # the resume appends two lines after the torn one.
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:2]) + lines[2][:len(lines[2]) // 2])
        assert run_sweep(spec, checkpoint=path, resume=True) == expected
        scan = scan_checkpoint(path, spec)
        assert not scan.torn_tail and scan.duplicates == 0
        assert [scan.completed[i] for i in range(3)] == expected
        # The next resume (the one that used to refuse the file) is clean.
        assert run_sweep(spec, checkpoint=path, resume=True) == expected
        assert_clean(checkpoint_log(path, spec))

    def test_mc_checkpoint_reads_back_clean(self, tmp_path):
        spec = mc_spec()
        path = str(tmp_path / "mc.jsonl")
        run_mc(spec, checkpoint=path, max_chunks=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 1, "trials_done": 4, "sta')
        resumed = run_mc(spec, checkpoint=path, resume=True)
        straight = run_mc(spec)
        assert resumed.complete and resumed.state == straight.state
        state, next_chunk = read_mc_checkpoint(path, spec)
        assert state == straight.state and next_chunk == spec.total_chunks
        again = run_mc(spec, checkpoint=path, resume=True)
        assert again.executed == 0 and again.state == straight.state
        assert_clean(mc_checkpoint_log(path, spec))


# ---------------------------------------------------------------------------
# Byte-boundary property suite, one case per format.
# ---------------------------------------------------------------------------

class TestByteBoundaries:
    """Cut the last line at every offset; recovery keeps the intact prefix."""

    def cuts(self, path):
        """Yield ``(cut data, intact lines, torn)`` for each offset."""
        with open(path, "rb") as handle:
            data = handle.read()
        start, end = last_line_bounds(data)
        for offset in range(start, end):
            # An entry is committed by its newline, so even a cut just
            # before it leaves the last entry uncommitted.
            yield data[:offset], data.count(b"\n") - 1, offset > start

    def test_sweep_checkpoint(self, tmp_path):
        spec = sweep_spec()
        original = str(tmp_path / "original.jsonl")
        expected = run_sweep(spec, checkpoint=original)
        original_lines = lines_of(original)
        path = str(tmp_path / "sweep.jsonl")
        for data, _, _ in self.cuts(original):
            with open(path, "wb") as handle:
                handle.write(data)
            assert run_sweep(spec, checkpoint=path, resume=True) == expected
            assert lines_of(path) == original_lines
            assert read_checkpoint(path, spec) == dict(enumerate(expected))
            assert_clean(checkpoint_log(path, spec))

    def test_mc_checkpoint(self, tmp_path):
        spec = mc_spec()
        original = str(tmp_path / "original.jsonl")
        straight = run_mc(spec, checkpoint=original)
        original_lines = lines_of(original)
        path = str(tmp_path / "mc.jsonl")
        for data, _, _ in self.cuts(original):
            with open(path, "wb") as handle:
                handle.write(data)
            resumed = run_mc(spec, checkpoint=path, resume=True)
            assert resumed.state == straight.state
            assert lines_of(path) == original_lines
            assert_clean(mc_checkpoint_log(path, spec))

    def test_serve_journal(self, tmp_path):
        original = str(tmp_path / "original.jsonl")
        journal = ServeJournal(original)
        journal.open()
        journal.accepted("d1", tiny_request())
        journal.completed("d1", {"decisions": {"0": 1}})
        journal.accepted("d2", tiny_request(seed=4))
        journal.completed("d2", {"decisions": {"0": 0}})
        journal.close()
        original_lines = lines_of(original)
        path = str(tmp_path / "serve.jsonl")
        for data, intact, torn in self.cuts(original):
            with open(path, "wb") as handle:
                handle.write(data)
            replay = ServeJournal(path).replay()
            assert replay.torn_tail == torn
            assert replay.summary()["completed"] == intact - 3
            # Reopen without compacting: the torn tail is cut, the retried
            # completion lands on a clean line, and the log reads back.
            reopened = ServeJournal(path)
            reopened.open()
            reopened.completed("d2", {"decisions": {"0": 0}})
            reopened.close()
            assert lines_of(path)[:intact] == original_lines[:intact]
            after = ServeJournal(path).replay()
            assert not after.torn_tail
            assert after.completed == {"d1": {"decisions": {"0": 1}},
                                       "d2": {"decisions": {"0": 0}}}
            assert_clean(reopened._log)

    def test_stray_header_tmp_files_are_ignored(self, tmp_path):
        spec = sweep_spec()

        def restart_service(path):
            service = AgreementService(journal=ServeJournal(path))
            service.start()
            service.close()

        cases = {
            "sweep": lambda path: run_sweep(spec, checkpoint=path,
                                            resume=True),
            "mc": lambda path: run_mc(mc_spec(), checkpoint=path,
                                      resume=True),
            "serve": restart_service,
        }
        for name, reopen in cases.items():
            path = str(tmp_path / f"{name}.jsonl")
            # A crash before the rename: a stray (here torn) header, and
            # no log.  Also one carrying this process's own temp name.
            for pid in (99999999, os.getpid()):
                with open(f"{path}.tmp.{pid}", "w") as handle:
                    handle.write('{"kind": "repro-')
            reopen(path)
            reopen(path)
            log = {"sweep": checkpoint_log(path, spec),
                   "mc": mc_checkpoint_log(path, mc_spec()),
                   "serve": ServeJournal(path)._log}[name]
            assert_clean(log)
        assert len(read_checkpoint(str(tmp_path / "sweep.jsonl"), spec)) == 3
        state, _ = read_mc_checkpoint(str(tmp_path / "mc.jsonl"), mc_spec())
        assert state == run_mc(mc_spec()).state
        assert ServeJournal(str(tmp_path / "serve.jsonl")).replay().summary(
        ) == {"completed": 0, "pending": 0, "duplicates": 0,
              "torn_tail": False}


# ---------------------------------------------------------------------------
# The log itself: appends, failures, the header vocabulary.
# ---------------------------------------------------------------------------

def plain_log(path, **kwargs):
    return DurableLog(str(path), {"kind": "test-log", "version": 1,
                                  "digest": "abc"},
                      noun="a test log", subject="test", **kwargs)


class TestDurableLog:
    def test_failed_append_is_cut_back_to_its_line_start(self, tmp_path,
                                                         monkeypatch):
        log = plain_log(tmp_path / "log.jsonl")
        log.open()
        log.append({"n": 1})
        written = DurableLog._write

        def half_then_fail(self, data):
            written(self, data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(DurableLog, "_write", half_then_fail)
        with pytest.raises(CheckpointWriteError, match="append failed"):
            log.append({"n": 2})
        monkeypatch.undo()
        log.append({"n": 3})
        log.close()
        scan = log.read()
        assert [entry for _, entry in scan.entries] == [{"n": 1}, {"n": 3}]
        assert not scan.torn_tail

    def test_header_is_byte_stable_and_fsync_is_optional(self, tmp_path):
        for fsync in (False, True):
            log = plain_log(tmp_path / f"log-{fsync}.jsonl", fsync=fsync)
            log.open()
            log.append({"b": 2, "a": 1})
            log.close()
            assert Path(log.path).read_text() == (
                '{"digest": "abc", "kind": "test-log", "version": 1}\n'
                '{"a": 1, "b": 2}\n')

    def test_a_torn_header_alone_is_refused_then_recreated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind": "te')
        log = plain_log(path)
        with pytest.raises(ConfigurationError, match="torn header line"):
            log.read()
        log.open()  # reopening for append repairs it to a fresh header
        log.close()
        assert log.read().entries == []

    @pytest.mark.parametrize("header, match", [
        ('{"kind": "other", "version": 1}', "is not a test log"),
        ('{"digest": "abc", "kind": "test-log", "version": 2}',
         "version 2 test log"),
        ('{"digest": "xyz", "kind": "test-log", "version": 1}',
         "different test"),
        ("garbage", "unreadable header"),
    ])
    def test_header_vocabulary(self, tmp_path, header, match):
        path = tmp_path / "log.jsonl"
        path.write_text(header + '\n{"n": 1}\n')
        with pytest.raises(ConfigurationError, match=match):
            plain_log(path).read()

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        """The journal appends from two threads: no line may be lost/torn."""
        log = plain_log(tmp_path / "log.jsonl")
        log.open()
        threads = [threading.Thread(target=lambda w=w: [
            log.append({"w": w, "i": i}) for i in range(200)])
            for w in range(2 * (os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        log.close()
        scan = log.read()
        assert not scan.torn_tail
        assert sorted((e["w"], e["i"]) for _, e in scan.entries) == [
            (w, i) for w in range(len(threads)) for i in range(200)]
        # The cut-back offset tracked every append: a failure now would
        # truncate to the true end of the file, not into a line.
        assert log._size == os.path.getsize(log.path)

    def test_a_compaction_dying_midway_leaves_the_log_intact(self,
                                                             tmp_path):
        log = plain_log(tmp_path / "log.jsonl")
        log.open()
        log.append({"n": 1})
        log.close()
        before = Path(log.path).read_bytes()

        def entries():
            yield {"n": 1}
            raise KeyboardInterrupt  # the writer dies mid-rewrite

        with pytest.raises(KeyboardInterrupt):
            log.compact(entries())
        assert Path(log.path).read_bytes() == before
        assert os.listdir(tmp_path) == ["log.jsonl"]  # no temp file left

    def test_compact_refuses_an_open_log(self, tmp_path):
        log = plain_log(tmp_path / "log.jsonl")
        log.open()
        with pytest.raises(ConfigurationError, match="before opening"):
            log.compact([])
        log.close()


# ---------------------------------------------------------------------------
# Format compatibility: logs written before the shared log existed.
# ---------------------------------------------------------------------------

@pytest.fixture()
def fixtures(tmp_path):
    """A scratch copy of the committed fixtures (never edited in place)."""
    copy = tmp_path / "durable"
    shutil.copytree(FIXTURES, copy)
    return copy


def fixture_bytes(name):
    with open(os.path.join(FIXTURES, name), "rb") as handle:
        return handle.read()


class TestFormatFixtures:
    @pytest.fixture()
    def expected(self):
        with open(os.path.join(FIXTURES, "replay-expected.json")) as handle:
            return json.load(handle)

    def specs(self):
        with open(os.path.join(FIXTURES, "sweep-spec.json")) as handle:
            sweep = SweepSpec.from_dict(json.load(handle))
        with open(os.path.join(FIXTURES, "mc-spec.json")) as handle:
            mc = McSpec.from_dict(json.load(handle))
        return sweep, mc

    def test_fixtures_replay_identically(self, fixtures, expected):
        sweep, mc = self.specs()
        scan = scan_checkpoint(str(fixtures / "sweep.jsonl"), sweep)
        assert {str(i): report.to_dict() for i, report
                in sorted(scan.completed.items())} == \
            expected["sweep"]["completed"]
        assert (scan.duplicates, scan.torn_tail) == (
            expected["sweep"]["duplicates"], expected["sweep"]["torn_tail"])
        state, next_chunk = read_mc_checkpoint(str(fixtures / "mc.jsonl"), mc)
        assert state.to_dict() == expected["mc"]["state"]
        assert next_chunk == expected["mc"]["next_chunk"]
        replay = ServeJournal(str(fixtures / "serve.jsonl")).replay()
        assert replay.summary() == expected["serve"]["summary"]
        assert replay.completed == expected["serve"]["completed"]
        assert [[digest, request.to_dict()] for digest, request
                in replay.pending] == expected["serve"]["pending"]

    def test_compacting_a_clean_fixture_reproduces_its_bytes(self, fixtures):
        sweep, mc = self.specs()
        path = str(fixtures / "sweep.jsonl")
        assert compact_checkpoint(path, sweep)["duplicates_dropped"] == 0
        checkpoint_log(path, sweep).compact(
            {"index": index, "report": report.to_dict()}
            for index, report in sorted(read_checkpoint(path, sweep).items()))
        assert fixture_bytes("sweep.jsonl") == (fixtures
                                               / "sweep.jsonl").read_bytes()
        log = mc_checkpoint_log(str(fixtures / "mc.jsonl"), mc)
        log.compact(entry for _, entry in log.read().entries)
        assert fixture_bytes("mc.jsonl") == (fixtures
                                            / "mc.jsonl").read_bytes()
        ServeJournal(str(fixtures / "serve.jsonl")).compact()
        assert fixture_bytes("serve.jsonl") == (fixtures
                                               / "serve.jsonl").read_bytes()

    @pytest.mark.skipif(not numpy_available(), reason="the fixture's runs "
                        "record engine_resolved 'batched', which needs numpy")
    def test_appending_to_a_fixture_extends_it_byte_for_byte(self, fixtures):
        sweep, _ = self.specs()
        path = str(fixtures / "sweep.jsonl")
        lines = fixture_bytes("sweep.jsonl").splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:-1]))
        assert run_sweep(sweep, checkpoint=path, resume=True) == [
            report for _, report in sorted(
                read_checkpoint(os.path.join(FIXTURES, "sweep.jsonl"),
                                sweep).items())]
        assert (fixtures / "sweep.jsonl").read_bytes() == \
            fixture_bytes("sweep.jsonl")
