"""EIG engine selection: flat-array fast, vectorized numpy, and dict reference.

The package ships three interchangeable implementations of the Exponential
Information Gathering substrate:

* ``"fast"`` — interned label sequences (dense integer node-ids), flat
  level-major value buffers, a single bottom-up conversion pass with inlined
  majority counting, and by-reference level-slice messages.  This is the
  engine used outside any scope; it has no dependencies and exists purely
  for speed.
* ``"numpy"`` — the same flat layout with the level buffers stored as
  small-integer ndarrays: gathering is fancy-indexed assignment over the
  interned ``(slots, parents)`` tables, and ``resolve`` / ``resolve'`` / the
  Fault Discovery Rule are one vectorized ``bincount`` majority vote per level
  over a ``(parents, branch)`` reshape.  **Optional**: it registers only when
  numpy is importable (:func:`numpy_available`); selecting it without numpy
  raises.
* ``"reference"`` — the original ``Dict[LabelSequence, Value]`` trees with the
  recursive-specification conversion functions.  It is kept verbatim as the
  executable specification: property tests assert that all engines produce
  identical decisions, discoveries and conversions, and the perf benchmarks
  use it as the before/after baseline.

The engine is chosen per processor at construction time: an explicit
``engine=`` argument wins, otherwise the processor takes the engine of the
innermost enclosing :func:`use_engine` scope, and ``"fast"`` when no scope is
open.  The scope is a :class:`contextvars.ContextVar`, so it belongs to the
run that opened it: only run drivers enter it (the façade's ``execute``, the
executor rungs, and the batched and sharded runs, which scope ``"numpy"``),
and concurrent runs on other threads never see each other's engine.  There
is no process-wide default and no environment variable — a run's engine is
a function of its request alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Tuple

FAST = "fast"
NUMPY = "numpy"
REFERENCE = "reference"

ENGINES = (FAST, NUMPY, REFERENCE)

#: The batched whole-run executor (``run_agreement(..., batched=True)``,
#: ``repro run --engine batched``).  Not a per-processor engine — it replaces
#: the per-processor stepping loop itself with 2-D kernels over all correct
#: processors — but benchmarks and the CLI select it alongside the engines,
#: so it is named here.  It runs on the ``"numpy"`` storage layer and is
#: available exactly when that engine is (see :func:`numpy_available`);
#: per-run eligibility (EIG specs only) is decided by
#: :func:`repro.runtime.batched.batched_supported`.
BATCHED = "batched"

#: The engine of the innermost open :func:`use_engine` scope in this context.
_scoped_engine: ContextVar[str] = ContextVar("repro_eig_engine", default=FAST)


def numpy_available() -> bool:
    """Whether the ``"numpy"`` engine is registered (numpy importable)."""
    from .npsupport import have_numpy
    return have_numpy()


def available_engines() -> Tuple[str, ...]:
    """The engines that can actually be selected in this process."""
    if numpy_available():
        return ENGINES
    return (FAST, REFERENCE)


def current_engine() -> str:
    """The engine used by processors that do not request one explicitly."""
    return _scoped_engine.get()


def validate_engine(engine: Optional[str]) -> str:
    """Normalise an engine name, substituting the scoped engine for ``None``.

    Raises :class:`ValueError` for unknown names and for ``"numpy"`` when
    numpy is not installed (the engine stays strictly optional).
    """
    if engine is None:
        return current_engine()
    if engine not in ENGINES:
        raise ValueError(f"unknown EIG engine {engine!r}; expected one of {ENGINES}")
    if engine == NUMPY and not numpy_available():
        raise ValueError(
            f"EIG engine {NUMPY!r} requires numpy, which is not installed; "
            f"available engines: {available_engines()}")
    return engine


@contextmanager
def use_engine(engine: str) -> Iterator[str]:
    """Build processors on *engine* for the dynamic extent of the block.

    The choice is visible only to the current thread (context); nested
    scopes restore the outer engine on exit.
    """
    engine = validate_engine(engine)
    token = _scoped_engine.set(engine)
    try:
        yield engine
    finally:
        _scoped_engine.reset(token)
