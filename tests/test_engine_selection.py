"""Engine registry behaviour: selection, gating, and per-run scoping.

The numpy engine must stay strictly optional: it is registered only when
numpy is importable and selecting it without numpy raises a clear error.
A run's engine is a function of its request alone: :func:`use_engine` scopes
an engine to the current context, so nested scopes restore their outer
engine and concurrent runs on other threads — through the façade or the
serve layer — never build processors on each other's engine.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import RunRequest, execute, facade, plan_request
from repro.core import engine as engine_module
from repro.core.engine import (ENGINES, available_engines, current_engine,
                               numpy_available, use_engine, validate_engine)
from repro.core.shifting import ShiftingEIGProcessor
from repro.serve import AgreementService

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


class TestValidateEngine:
    def test_known_engines_accepted(self):
        assert validate_engine("fast") == "fast"
        assert validate_engine("reference") == "reference"

    def test_none_selects_default(self):
        with use_engine("reference"):
            assert validate_engine(None) == "reference"

    def test_unknown_engine_raises_with_candidates(self):
        with pytest.raises(ValueError, match="unknown EIG engine"):
            validate_engine("cython")

    def test_numpy_engine_validates_when_available(self):
        if not numpy_available():
            pytest.skip("numpy not installed")
        assert validate_engine("numpy") == "numpy"
        with use_engine("numpy"):
            assert validate_engine(None) == "numpy"

    def test_numpy_engine_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(engine_module, "numpy_available", lambda: False)
        with pytest.raises(ValueError, match="requires numpy"):
            validate_engine("numpy")
        with pytest.raises(ValueError, match="requires numpy"):
            with use_engine("numpy"):
                pass

    def test_available_engines_reflects_gating(self, monkeypatch):
        assert set(available_engines()) <= set(ENGINES)
        monkeypatch.setattr(engine_module, "numpy_available", lambda: False)
        assert engine_module.available_engines() == ("fast", "reference")


class TestEngineScope:
    def test_nested_scopes_restore_the_outer_engine(self):
        with use_engine("reference"):
            with use_engine("fast"):
                assert current_engine() == "fast"
            assert current_engine() == "reference"
        assert current_engine() == "fast"

    def test_scope_is_invisible_to_other_threads(self):
        seen = []
        with use_engine("reference"):
            worker = threading.Thread(
                target=lambda: seen.append(current_engine()))
            worker.start()
            worker.join()
        assert seen == ["fast"]

    def test_enclosing_scope_does_not_steer_the_planner(self):
        request = RunRequest(protocol="exponential", n=7, t=2,
                             initial_value=1, adversary="silent")
        expected = plan_request(request).resolved
        with use_engine("reference"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plan_request(request).resolved == expected
            fast = execute(request.with_engine("fast"))
        assert fast.engine_resolved == "fast"


def _hybrid_streams(count):
    """An ``auto`` and a ``reference`` stream of hybrid b=3, n=10, t=3 runs.

    Distinct seeds keep the serve cache (engine-independent by design) from
    answering one stream with the other's results.
    """
    base = RunRequest(protocol="hybrid", protocol_params={"b": 3}, n=10,
                      t=3, initial_value=1, scenario="faulty-source-allies",
                      battery="worst-case")
    return {engine: [replace(base, engine=engine, seed=offset + index)
                     for index in range(count)]
            for engine, offset in (("auto", 0), ("reference", 1000))}


#: What each stream plans to: the hybrid is batched-ineligible, so ``auto``
#: takes the per-processor numpy engine when it can.
_PLANNED = {"auto": "numpy" if numpy_available() else "fast",
            "reference": "reference"}


def _run_threads(streams, handle):
    """Run every stream on its own thread through *handle*; re-raise errors."""
    errors = []
    start = threading.Barrier(len(streams))

    def drive(requests):
        try:
            start.wait()
            for request in requests:
                handle(request)
        except BaseException as exc:  # surfaced below, on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(requests,))
               for requests in streams.values()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestConcurrentRunsKeepTheirEngines:
    """Two threads running different engines at a tiny switch interval."""

    @pytest.fixture(autouse=True)
    def _fast_thread_switching(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(previous)

    def test_execute_threads_build_their_own_engine(self, monkeypatch):
        streams = _hybrid_streams(40)
        expected = _PLANNED
        local = threading.local()
        built = {engine: [] for engine in streams}

        plan_run = facade.plan_run

        def planning(*args, **kwargs):
            # The eligibility probe builds a processor outside the run's
            # scope; only processors built by the run itself count.
            local.planning = True
            try:
                return plan_run(*args, **kwargs)
            finally:
                local.planning = False

        init = ShiftingEIGProcessor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if not getattr(local, "planning", False):
                built[local.stream].append(self.engine)

        monkeypatch.setattr(facade, "plan_run", planning)
        monkeypatch.setattr(ShiftingEIGProcessor, "__init__", recording_init)

        def handle(request):
            local.stream = request.engine
            execute(request)

        _run_threads(streams, handle)
        for engine, engines in built.items():
            assert engines, engine
            leaked = [name for name in engines if name != expected[engine]]
            assert leaked == [], (
                f"{len(leaked)} of {len(engines)} processors of the "
                f"{engine!r} stream built on another engine")

    def test_serve_threads_leave_no_engine_behind(self):
        service = AgreementService()
        streams = _hybrid_streams(40)
        expected = _PLANNED
        served = {engine: [] for engine in streams}

        def handle(request):
            served[request.engine].append(service.handle(request).engine)

        _run_threads(streams, handle)
        for engine, engines in served.items():
            assert engines == [expected[engine]] * len(engines), engine
        fresh = RunRequest(protocol="exponential", n=7, t=2, initial_value=1,
                           adversary="silent", seed=99)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = service.handle(fresh)
        assert not result.cached
        expected_fresh = "batched" if numpy_available() else "fast"
        assert result.engine == expected_fresh


class TestWithoutNumpyInstalled:
    """Simulate a bare image: importing repro and running the fast engine
    must work with numpy entirely unimportable."""

    def test_import_and_run_without_numpy(self):
        script = """
import sys

class _BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")
        return None

sys.meta_path.insert(0, _BlockNumpy())

from repro.core.engine import available_engines, validate_engine
assert available_engines() == ("fast", "reference"), available_engines()
try:
    validate_engine("numpy")
except ValueError as exc:
    assert "requires numpy" in str(exc)
else:
    raise AssertionError("validate_engine('numpy') should have raised")

from repro.core.exponential import ExponentialSpec
from repro.core.protocol import ProtocolConfig
from repro.runtime.simulation import run_agreement
result = run_agreement(ExponentialSpec(), ProtocolConfig(n=4, t=1),
                       frozenset([1]), None)
assert result.agreement
print("OK")
"""
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr
        assert "OK" in completed.stdout
