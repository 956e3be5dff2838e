"""Per-layer spans for the traced run, recorded from outside the program.

The program has no tracing of its own, so the traced run wraps the public
functions and methods of each layer (:data:`LAYERS`) in the process that
runs them — the closed-loop worker, or the traced ``repro serve`` started by
``launcher.py`` — and restores every original object when the run ends.
Each call records one span: layer, start, end, parent span, request id and
the time the benchmark paused recording inside it (:meth:`Tracer.paused`).
Spans stay in memory (up to :data:`SPAN_CAP`; the per-layer totals are kept
for every call) and are written out as NDJSON when the run ends.

A span's duration is its end minus its start, less the time paused inside.
A layer's *busy* time is inclusive: the duration of its outermost spans,
so a layer whose function calls another of its own functions is counted
once.  Its *self* time is each span's duration minus the durations of its
direct child spans, summed.  Layers that a workload never enters report
zero — on a workload that bypasses a layer, "no change" reads as zeros.

Which end-to-end number each layer should move, and on which workload:

* ``runtime.batched.*`` and ``core.npsupport.tallies`` — ``latency_ms`` on
  ``eig-large`` (and ``mc-small``); zero on ``hybrid-shift``;
* ``core.perproc.*`` and ``runtime.network.deliver`` — ``latency_ms`` on
  ``hybrid-shift``; zero on ``eig-large``;
* ``api.planner``, ``api.report``, ``adversary``, ``runtime.metrics``,
  ``stats.*`` — ``latency_ms`` (time per trial) on ``mc-small``, adversary
  also on ``eig-large``;
* ``serve.*`` — ``latency_ms`` on ``serve-mixed``: the cache layers through
  its cache reads, the journal and execution through its fresh runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: (layer, targets).  A target is ``"module:function"`` — replaced in every
#: ``repro`` module that imported it — or ``"module:Class.method"``, which
#: also wraps each override in the class's subclasses.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("api.execute", ("repro.api.facade:execute",)),
    ("api.planner", ("repro.api.request:RunRequest.resolve_parts",
                     "repro.api.planner:plan_run")),
    ("api.report", ("repro.api.request:RunReport.from_result",)),
    ("adversary", ("repro.adversary.base:Adversary.round_messages",
                   "repro.adversary.base:Adversary.observe_delivery")),
    ("runtime.batched.claims",
     ("repro.runtime.batched:run_batched_if_supported",)),
    ("runtime.batched.gather",
     ("repro.core.fault_masking:gather_level_batched",)),
    ("runtime.batched.discover",
     ("repro.core.fault_masking:discover_and_mask_batched",)),
    ("runtime.batched.convert",
     ("repro.runtime.batched:convert_stacked_rows",
      "repro.core.resolve:batched_resolve_levels",
      "repro.core.fault_discovery:discover_during_conversion_batched")),
    ("core.npsupport.tallies", ("repro.core.npsupport:window_tallies",
                                "repro.core.npsupport:vote_windows")),
    ("core.perproc.outgoing",
     ("repro.core.shifting:ShiftingEIGProcessor.outgoing",
      "repro.core.algorithm_c:AlgorithmCProcessor.outgoing",
      "repro.core.hybrid:HybridProcessor.outgoing")),
    ("core.perproc.incoming",
     ("repro.core.shifting:ShiftingEIGProcessor.incoming",
      "repro.core.algorithm_c:AlgorithmCProcessor.incoming",
      "repro.core.hybrid:HybridProcessor.incoming")),
    ("core.perproc.gather", ("repro.core.fault_masking:gather_level_flat",
                             "repro.core.fault_masking:gather_level_numpy")),
    ("core.perproc.discover",
     ("repro.core.fault_masking:discover_and_mask",
      "repro.core.fault_discovery:discover_during_conversion")),
    ("core.perproc.convert", ("repro.core.resolve:flat_resolve_levels",
                              "repro.core.resolve:numpy_resolve_levels",
                              "repro.core.resolve:numpy_resolve_root")),
    ("runtime.network.deliver",
     ("repro.runtime.network:SynchronousNetwork.deliver",)),
    ("runtime.metrics",
     ("repro.runtime.metrics:RunMetrics.record_round",
      "repro.runtime.metrics:RunMetrics.record_message",
      "repro.runtime.metrics:RunMetrics.record_messages",
      "repro.runtime.metrics:RunMetrics.record_computation",
      "repro.runtime.metrics:RunMetrics.record_discoveries")),
    ("stats.campaign", ("repro.stats.campaign:run_mc",)),
    ("stats.fold", ("repro.stats.campaign:McState.fold",)),
    ("serve.admit", ("repro.serve.service:AgreementService.admit",)),
    ("serve.digest", ("repro.serve.cache:request_digest",)),
    ("serve.cache.get", ("repro.serve.cache:ResultCache.get",)),
    ("serve.cache.put", ("repro.serve.cache:ResultCache.put",)),
    ("serve.accept", ("repro.serve.service:AgreementService.accept",)),
    ("serve.journal.append", ("repro.serve.journal:ServeJournal.accepted",
                              "repro.serve.journal:ServeJournal.completed")),
    ("serve.execute", ("repro.serve.service:AgreementService.run_job",)),
)

LAYER_NAMES = tuple(layer for layer, _ in LAYERS)
LAYER_FIELDS = ("busy_s", "self_s", "calls", "share")

#: Calls whose first argument (after ``self``) names the request they serve:
#: the serve digest.  Their spans, and their children's, carry it as the id.
_REQUEST_ARG = {"serve.cache.get", "serve.cache.put", "serve.accept",
                "serve.journal.append", "serve.execute"}

#: Raw spans kept for the NDJSON file; totals count every call regardless.
SPAN_CAP = 100_000

#: Packages imported before wrapping, so that every ``from x import f``
#: binding exists when the tracer replaces it.  (A module first imported
#: while tracing binds the wrapper; :meth:`Tracer.remove` finds it anyway.)
_PRELOAD = ("repro.api", "repro.stats", "repro.serve", "repro.cli",
            "repro.runtime.sharding", "repro.experiments", "repro.search")

_MARK = "__perfbench_traced__"


class _ThreadState:
    __slots__ = ("stack", "depth", "totals", "rid", "spans", "counts",
                 "events")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.depth = [0] * len(LAYERS)
        #: per layer: [calls, busy, self]
        self.totals = [[0, 0.0, 0.0] for _ in LAYERS]
        self.rid: Any = None
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = {}
        #: (kind, request id) -> time, for the serve queue/write waits
        self.events: Dict[Tuple[str, Any], float] = {}


class Tracer:
    """Wraps the layers on :meth:`install`, restores them on :meth:`remove`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[Callable, Callable] = {}
        self.installed = False
        #: Wrappers record only while this is set (see :meth:`start`).
        self.recording = False
        self.wall_s = 0.0
        self._since = 0.0

    # -- per-thread state ----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def set_request(self, rid: Any) -> None:
        """Tag the calling thread's next spans with request id *rid*."""
        self._state().rid = rid

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, index: int, fn: Callable, has_self: bool) -> Callable:
        layer = LAYERS[index][0]
        rid_at = (1 if has_self else 0) if layer in _REQUEST_ARG else None
        hook = _HOOKS.get(layer)
        tracer = self
        perf = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            rid = state.rid
            if rid_at is not None and len(args) > rid_at:
                rid = args[rid_at]
            previous_rid, state.rid = state.rid, rid
            outermost = state.depth[index] == 0
            state.depth[index] += 1
            # [span id, time in direct children, time paused inside]
            frame = [next(ids), 0.0, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                state.depth[index] -= 1
                state.rid = previous_rid
                duration = end - start - frame[2]
                totals = state.totals[index]
                totals[0] += 1
                totals[2] += duration - frame[1]
                if outermost:
                    totals[1] += duration
                if parent is not None:
                    parent[1] += duration
                if len(state.spans) < SPAN_CAP:
                    state.spans.append(
                        (layer, start, end, frame[0],
                         parent[0] if parent is not None else None, rid,
                         frame[2]))
            if hook is not None:
                hook(state, result, rid, start, end)
            return result

        setattr(traced, _MARK, True)
        self._originals[traced] = fn
        return traced

    def _replace(self, owner: Any, name: str, original: Any,
                 replacement: Any) -> None:
        setattr(owner, name, replacement)
        self._patched.append((owner, name, original))

    def _install_function(self, index: int, module: Any, name: str) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(index, original, has_self=False)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._replace(loaded, attr, original, wrapped)

    def _install_method(self, index: int, cls: type, name: str) -> None:
        seen = set()
        pending = [cls]
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(name)
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    self._wrap(index, original.__func__, has_self=True))
            else:
                wrapped = self._wrap(index, original, has_self=True)
            self._replace(klass, name, original, wrapped)

    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        for package in _PRELOAD:
            importlib.import_module(package)
        for index, (_, targets) in enumerate(LAYERS):
            for target in targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, method = qualname.rpartition(".")
                if owner_name:
                    self._install_method(index, getattr(module, owner_name),
                                         method)
                else:
                    self._install_function(index, module, qualname)
        self.installed = True
        return self

    def remove(self) -> None:
        """Put every original object back, newest replacement first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro"):
                for attr, value in list(vars(loaded).items()):
                    if getattr(value, _MARK, False):
                        setattr(loaded, attr,
                                self._originals.get(value, value))
        self._originals.clear()
        self.installed = False

    def start(self) -> None:
        """Begin recording; the traced wall time runs until :meth:`stop`."""
        if not self.recording:
            self._since = time.perf_counter()
            self.recording = True

    def stop(self) -> None:
        if self.recording:
            self.recording = False
            self.wall_s += time.perf_counter() - self._since

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Leave the time inside out of the wall time and of every span open
        on the calling thread: the benchmark's own checks, made from inside
        a traced call."""
        if not self.recording:
            yield
            return
        self.stop()
        started = time.perf_counter()
        try:
            yield
        finally:
            gap = time.perf_counter() - started
            for frame in self._state().stack:
                frame[2] += gap
            self.start()

    def __enter__(self) -> "Tracer":
        self.install()
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
        self.remove()

    # -- results -------------------------------------------------------------
    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._states)

    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.{busy_s,self_s,calls,share}`` for every layer; the share
        is busy time over the recorded wall time."""
        wall_s = self.wall_s
        with self._lock:
            states = list(self._states)
        out: Dict[str, float] = {}
        for index, layer in enumerate(LAYER_NAMES):
            calls = sum(s.totals[index][0] for s in states)
            busy = sum(s.totals[index][1] for s in states)
            own = sum(s.totals[index][2] for s in states)
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = own
            out[f"{layer}.calls"] = calls
            out[f"{layer}.share"] = busy / wall_s if wall_s > 0 else 0.0
        return out

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for state in self._states:
            for key, value in state.counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def events(self) -> Dict[Tuple[str, Any], float]:
        merged: Dict[Tuple[str, Any], float] = {}
        for state in self._states:
            merged.update(state.events)
        return merged

    def write_spans(self, path: str) -> int:
        """Write every kept span as one NDJSON line; return how many."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for state in self._states:
                for (layer, start, end, span_id, parent, rid,
                     paused) in state.spans:
                    handle.write(json.dumps(
                        {"name": layer, "start": start, "end": end,
                         "id": span_id, "parent": parent, "request": rid,
                         "paused": paused}) + "\n")
                    written += 1
        return written

    def summary(self) -> Dict[str, Any]:
        """Everything a traced process hands back: totals, counts, events."""
        return {"layers": self.layer_metrics(), "wall_s": self.wall_s,
                "counts": self.counts(),
                "events": [[kind, rid, at] for (kind, rid), at
                           in self.events().items()],
                "spans": self.span_count()}


def leftover_wrappers() -> List[str]:
    """Every ``repro`` attribute still bound to a tracer wrapper."""
    found = []
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if getattr(value, _MARK, False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    inner = getattr(inner, "__func__", inner)
                    if getattr(inner, _MARK, False):
                        found.append(f"{name}.{attr}.{member}")
    return sorted(set(found))


# -- hooks: counts measured where the work happens ----------------------------
def _count(state: _ThreadState, key: str) -> None:
    state.counts[key] = state.counts.get(key, 0) + 1


def _planner_hook(state, result, rid, start, end) -> None:
    resolved = getattr(result, "resolved", None)
    if resolved is not None:
        _count(state, f"api.planner.resolved.{resolved}")


def _cache_get_hook(state, result, rid, start, end) -> None:
    _count(state, "serve.cache.lookups")
    if result is not None:
        _count(state, "serve.cache.hits")


def _accept_hook(state, result, rid, start, end) -> None:
    state.events[("accepted", rid)] = end


def _run_job_hook(state, result, rid, start, end) -> None:
    state.events[("job_start", rid)] = start
    state.events[("job_end", rid)] = end


_HOOKS: Dict[str, Callable] = {
    "api.planner": _planner_hook,
    "serve.cache.get": _cache_get_hook,
    "serve.accept": _accept_hook,
    "serve.execute": _run_job_hook,
}


def per_layer_names() -> Sequence[str]:
    return [f"{layer}.{field}" for layer in LAYER_NAMES
            for field in LAYER_FIELDS]
