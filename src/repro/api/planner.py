"""The execution planner: resolve a request's ``engine`` to a concrete executor.

Given a :class:`~repro.api.request.RunRequest` and the spec/config it
resolves to, :func:`plan_run` returns an :class:`ExecutionPlan` saying which
per-processor engine the run's driver scopes and whether to take the
batched whole-run path.  The plan is a function of the request alone: no
process-wide setting or environment variable takes part.

Resolution rules
----------------
``engine="auto"`` (the default) picks the fastest executor the run is
eligible for::

    batched  — numpy importable and the spec steps plain EIG machines
               (Exponential, Algorithms A and B)
    numpy    — numpy importable (non-EIG specs, or batched-ineligible runs)
    fast     — always available
    reference— never chosen automatically; it exists to be asked for

An explicit ``"batched"`` on an ineligible run degrades to the best
per-processor engine with a :class:`RuntimeWarning` naming the reason.  An
explicit per-processor engine is taken as given.

The planner decides the *engine*; the *executor backend* a run is placed on
(:mod:`repro.api.executors` — serial, pool, or the sharded large-``n``
backend) is orthogonal and chosen by the caller.  The sharded backend can
row-split exactly the batched-eligible runs
(:func:`batched_ineligibility` returns ``None``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional

from ..core.engine import (BATCHED, FAST, NUMPY, numpy_available,
                           validate_engine)
from .request import AUTO, RunRequest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.protocol import ProtocolConfig, ProtocolSpec


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's verdict for one run."""

    #: The per-processor engine the run's driver scopes.
    engine: str
    #: Whether to take the batched whole-run executor.
    batched: bool
    #: What the request asked for (``"auto"`` included).
    requested: str
    #: One line of human-readable justification (surfaces in ``--json`` docs).
    reason: str

    @property
    def resolved(self) -> str:
        """The executor name recorded in run metadata."""
        return BATCHED if self.batched else self.engine


def batched_ineligibility(spec: "ProtocolSpec", config: "ProtocolConfig",
                          faulty: FrozenSet[int] = frozenset(),
                          adversary=None) -> Optional[str]:
    """Why this run cannot take the batched path — ``None`` means eligible.

    The single authority the planner, the sharded executor, and ``repro
    validate`` consult.  The checks mirror
    :func:`~repro.runtime.batched.run_batched_if_supported` in order: an
    adversary that declares a
    :attr:`~repro.adversary.base.Adversary.batched_fallback_reason` declines
    first (its string is returned verbatim), then numpy availability, then
    the spec probe, then the degenerate no-participant case.
    """
    reason = getattr(adversary, "batched_fallback_reason", None)
    if reason is not None:
        return str(reason)
    if not numpy_available():
        return "numpy is not importable"
    from ..runtime.batched import batched_supported
    if not batched_supported(spec, config):
        return (f"{spec.name} does not build plain shifting-EIG machines "
                f"(only those step as one row stack)")
    # The batched runner also declines degenerate runs where no correct
    # non-source processor participates; plan the fallback it would take so
    # the report's engine metadata matches what actually executed.
    if not any(p not in faulty and p != config.source
               for p in config.processors):
        return "no correct non-source processor participates"
    return None


def plan_run(request: RunRequest, spec: "ProtocolSpec",
             config: "ProtocolConfig",
             faulty: FrozenSet[int] = frozenset(),
             adversary=None) -> ExecutionPlan:
    """Resolve *request*'s engine choice against the run's eligibility."""
    requested = request.engine
    if requested not in (AUTO, BATCHED):
        engine = validate_engine(requested)
        return ExecutionPlan(engine=engine, batched=False,
                             requested=requested,
                             reason=f"explicit {engine!r} request")

    ineligible = batched_ineligibility(spec, config, faulty, adversary)
    if ineligible is None:
        return ExecutionPlan(
            engine=NUMPY, batched=True, requested=requested,
            reason=("auto: EIG spec eligible for whole-run batched stepping"
                    if requested == AUTO else "explicit batched request"))
    fallback = NUMPY if numpy_available() else FAST
    if requested == BATCHED:
        warnings.warn(
            f"engine='batched' is not supported for this run "
            f"({ineligible}); using the per-processor {fallback!r} engine "
            f"instead",
            RuntimeWarning, stacklevel=3)
        return ExecutionPlan(
            engine=fallback, batched=False, requested=requested,
            reason=f"batched unsupported here; per-processor {fallback!r} "
                   f"fallback")
    return ExecutionPlan(
        engine=fallback, batched=False, requested=requested,
        reason=("auto: batched-ineligible spec on the vectorized numpy "
                "engine" if fallback == NUMPY
                else "auto: numpy unavailable, flat-array fast engine"))
