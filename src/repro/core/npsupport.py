"""Optional-numpy support: lazy import plus the shared value↔code codec.

The ``"numpy"`` EIG engine stores tree levels as small-integer ndarrays.  Two
pieces of shared infrastructure live here so that every other module can stay
import-clean when numpy is absent:

* **Lazy numpy access.**  :func:`get_numpy` imports numpy at most once and
  caches the result (``None`` when unavailable); :func:`have_numpy` and
  :func:`require_numpy` are the gate used by the engine registry and by the
  numpy code paths.  Importing :mod:`repro` never imports numpy — only
  selecting the ``"numpy"`` engine does.

* **The value codec.**  Protocol values are arbitrary hashable objects (ints
  in every example), so the ndarray buffers hold dense integer *codes* instead
  of the values themselves.  One process-wide :class:`ValueCodec` interns
  values in first-seen order, which makes codes *globally consistent*: a
  receiver can copy a sender's code buffer by fancy indexing without any
  translation, because both trees read and write the same table.  Three codes
  are fixed by construction:

  - :data:`MISSING_CODE` (0) — an absent node (the ndarray twin of the flat
    engine's ``MISSING`` sentinel; never visible through the public tree API);
  - :data:`DEFAULT_CODE` (1) — :data:`~repro.core.values.DEFAULT_VALUE`;
  - :data:`BOTTOM_CODE` (2) — :data:`~repro.core.values.BOTTOM` (appears only
    in ``resolve'`` scratch buffers, never inside a tree).

  The codec is append-only and tiny (one entry per distinct value ever stored
  in any tree of the process — domains have a handful of elements), so it is
  shared rather than per-tree.
"""

from __future__ import annotations

from functools import lru_cache as _lru_cache
from typing import Dict, Hashable, List

from .values import BOTTOM, DEFAULT_VALUE, Value

_NUMPY = None
_NUMPY_CHECKED = False


def get_numpy():
    """The numpy module, or ``None`` when it is not installed (cached)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised on bare images
            numpy = None
        _NUMPY = numpy
    return _NUMPY


def have_numpy() -> bool:
    """``True`` iff numpy can be imported (the ``"numpy"`` engine gate)."""
    return get_numpy() is not None


def require_numpy():
    """Numpy, or a clear error pointing at the engine gate."""
    numpy = get_numpy()
    if numpy is None:
        raise RuntimeError(
            "the 'numpy' EIG engine requires numpy, which is not installed; "
            "use the 'fast' engine (the no-dependency default) instead")
    return numpy


#: Code of an absent node in an ndarray level buffer.
MISSING_CODE = 0
#: Code of :data:`~repro.core.values.DEFAULT_VALUE`.
DEFAULT_CODE = 1
#: Code of the ``⊥`` sentinel (conversion scratch only, never stored).
BOTTOM_CODE = 2

#: dtype of every code buffer: 16× smaller than object pointers.  (The
#: offset arithmetic of the per-level ``bincount`` majority votes runs in
#: int64 — see :func:`window_tallies` — so it never overflows this dtype.)
CODE_DTYPE_NAME = "int32"

#: Below this many stacked elements the batched kernels switch to their
#: scalar (pure-python) paths: ndarray call overhead dominates tiny levels —
#: the very regime the batched executor exists to win.  Shared by the
#: trigger, vote, and claim-routing fast paths so the crossover is tuned in
#: one place.
SMALL_KERNEL_ELEMENTS = 512


class ValueCodec:
    """Append-only interning table between protocol values and integer codes."""

    __slots__ = ("_code_of", "_value_of")

    def __init__(self) -> None:
        self._code_of: Dict[Value, int] = {}
        # Slot 0 is reserved for MISSING and never maps back to a value.
        self._value_of: List[Value] = [None]
        assert self.code(DEFAULT_VALUE) == DEFAULT_CODE
        assert self.code(BOTTOM) == BOTTOM_CODE

    def code(self, value: Value) -> int:
        """The code of *value*, interning it on first sight."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._value_of)
            self._code_of[value] = code
            self._value_of.append(value)
        return code

    def value(self, code: int) -> Value:
        """The value behind *code* (``None`` for :data:`MISSING_CODE`)."""
        return self._value_of[code]

    def __len__(self) -> int:
        """Number of code slots (``max assigned code + 1``)."""
        return len(self._value_of)

    # -- bulk helpers (numpy required) ---------------------------------------
    def encode_buffer(self, values, missing=None):
        """Encode an iterable of values into a fresh code ndarray.

        *missing* (identity-compared) marks entries to encode as
        :data:`MISSING_CODE` — callers pass the flat engine's sentinel.
        """
        np = require_numpy()
        values = list(values)
        return np.fromiter(
            (MISSING_CODE if v is missing else self.code(v) for v in values),
            dtype=CODE_DTYPE_NAME, count=len(values))

    def decode_buffer(self, codes, missing=None) -> List[Value]:
        """Decode a code ndarray back into a list of values.

        :data:`MISSING_CODE` entries decode to *missing* (default ``None``).
        """
        table = self._value_of
        return [missing if c == MISSING_CODE else table[c]
                for c in codes.tolist()]

    def domain_mask(self, domain):
        """Boolean lookup table over codes: ``mask[c]`` iff ``value(c) ∈ domain``.

        Sized to the codec at call time, so every code that can appear in an
        already-built buffer is covered (the codec is append-only).
        """
        np = require_numpy()
        # Intern the domain first: code() appends on first sight, and a
        # domain value the run has not produced yet would otherwise be
        # assigned a code one past the mask built from the pre-loop length.
        codes = [self.code(value) for value in domain]
        mask = np.zeros(len(self._value_of), dtype=bool)
        for code in codes:
            mask[code] = True
        return mask

    # -- cross-process synchronisation ---------------------------------------
    def snapshot(self, start: int = 1) -> List[Value]:
        """The interned values of codes ``[start, len)``, in code order.

        The sharded run executor ships these slices to its worker processes,
        whose codecs replay them with :meth:`adopt` so that code ndarrays
        serialized on one side decode identically on the other.
        """
        return list(self._value_of[start:])

    def adopt(self, values, start: int) -> None:
        """Replay a peer codec's :meth:`snapshot` slice beginning at *start*.

        The codec is append-only and interns in first-seen order, so a fresh
        (or fork-inherited) codec that adopts every slice a peer sends, in
        order, assigns byte-identical codes.  A mismatch means the two sides
        interned values independently — a protocol bug — and raises rather
        than silently decoding garbage.
        """
        for offset, value in enumerate(values):
            expected = start + offset
            if expected < len(self._value_of):
                if self._value_of[expected] == value:
                    continue
                raise RuntimeError(
                    f"value codec desync: code {expected} is "
                    f"{self._value_of[expected]!r} here but {value!r} on the "
                    f"peer")
            code = self.code(value)
            if code != expected:
                raise RuntimeError(
                    f"value codec desync: {value!r} interned as code {code}, "
                    f"peer expected {expected}")


#: The process-wide codec shared by every numpy-engine tree and message.
VALUE_CODEC = ValueCodec()


def shard_bounds(count: int, shards: int) -> List[tuple]:
    """Balanced contiguous ``[start, stop)`` row ranges for a sharded run.

    Splits *count* stacked rows into at most *shards* non-empty slices whose
    sizes differ by at most one — the partition the sharded run executor uses
    to hand each worker process a contiguous block of a
    :class:`BatchedEIGState` row stack.  Row order (participants first, then
    shadow rows) is preserved, so global row indices are
    ``range(start, stop)`` for each bound.
    """
    if count <= 0 or shards <= 0:
        return []
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class BatchedEIGState:
    """Stacked level buffers for every participating processor of one run.

    The batched run executor (:mod:`repro.runtime.batched`) stores, per tree
    level, a single ``(participants, level_size)`` int32 code ndarray — row
    ``i`` is exactly the level buffer participant ``i``'s
    :class:`~repro.core.tree.NumpyEIGTree` would hold at the same point of the
    execution.  One 2-D kernel per round then steps every correct processor at
    once: gathering is a single flat ``take`` over the stacked claims, and
    resolve / fault discovery reshape the whole stack into one
    ``(participants · parents, branch)`` vote matrix.

    **Invariant: stacks are C-contiguous.**  Every row is then a 1-D
    contiguous buffer (the view an outgoing
    :class:`~repro.runtime.messages.NumpyLevelMessage` wraps), and the vote
    reshape is a view rather than a copy of the whole level;
    :meth:`append_level` rejects any other layout.

    **Leaf votes.**  The discovery fixpoint tallies every child window of
    the leaf level it settles; it records the final per-window
    ``(best, best_count)`` with :meth:`set_leaf_votes`, and the conversion
    of the same round reads them back (:meth:`leaf_votes`) instead of
    tallying the leaf level again.  Installing a level or resetting to roots
    drops them.

    The aliasing discipline matches the per-processor trees: a level stack may
    be mutated only during the round that appended it (gathering + masking of
    freshly discovered senders); every later rewrite (the shift back to a
    root) installs new arrays, so a row view wrapped by an outgoing
    :class:`~repro.runtime.messages.NumpyLevelMessage` is immutable from the
    moment it is broadcast.

    **Levels are stored whole** (``whole`` is ``True``).  Roots come from
    the coercion rule and appended levels from the batched gather (which
    substitutes the default), so :data:`MISSING_CODE` never appears in a
    stack, and the batched kernels skip every absent-node pass.  The one
    exception is a one-row state over a per-processor tree built through
    ``store`` (:meth:`of_tree`), which may hold absent nodes: it has
    ``whole`` set to ``False``, and the kernels then apply the reference
    rules for absent nodes — they vote as the default
    (:meth:`voting_stack`), absent parents are not examined, and masking
    rewrites stored slots only.
    """

    __slots__ = ("index", "count", "whole", "_levels", "_leaf_votes")

    def __init__(self, index, count: int) -> None:
        require_numpy()
        self.index = index
        self.count = count
        self.whole = True
        self._levels: List[object] = []
        self._leaf_votes = None

    @classmethod
    def of_tree(cls, tree) -> "BatchedEIGState":
        """*tree*'s levels as a one-row state, by reference.

        The inverse of :meth:`row_tree`: a per-processor
        :class:`~repro.core.tree.NumpyEIGTree` already has the layout of one
        row (same index, same int32 codes), so each contiguous level buffer
        reshaped to ``(1, size)`` is a view, and what the batched kernels
        write into the state (masking) lands in the tree.
        """
        state = cls(tree.index, 1)
        for level in range(1, tree.num_levels + 1):
            state.append_level(tree.raw_level(level).reshape(1, -1))
            if tree.level_size(level) != tree.index.level_size(level):
                state.whole = False
        return state

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def raw_stack(self, level: int):
        """The ``(participants, level_size)`` code stack of *level*, by reference."""
        return self._levels[level - 1]

    def row_view(self, level: int, i: int):
        """Participant *i*'s level buffer: a 1-D view into the level stack."""
        return self._levels[level - 1][i]

    def set_roots(self, codes) -> None:
        """Install the per-participant root codes as the (only) level 1."""
        np = require_numpy()
        roots = np.asarray(codes, dtype=CODE_DTYPE_NAME).reshape(self.count, 1)
        self._levels = [roots]
        self._leaf_votes = None

    #: ``shift_{k→1}`` for the whole run: same operation as :meth:`set_roots`.
    reset_to_roots = set_roots

    def append_level(self, stack) -> None:
        """Install *stack* as the next level (shape- and layout-checked)."""
        expected = (self.count, self.index.level_size(self.num_levels + 1))
        if tuple(stack.shape) != expected:
            raise ValueError(
                f"level {self.num_levels + 1} stack must have shape "
                f"{expected}, got {tuple(stack.shape)}")
        if not stack.flags.c_contiguous:
            raise ValueError(
                f"level {self.num_levels + 1} stack must be C-contiguous "
                f"(row-major rows back the broadcast views and vote windows)")
        self._levels.append(stack)
        self._leaf_votes = None

    def voting_stack(self, level: int):
        """The *level* stack as the rules read it: absent nodes vote as the
        default.  The stack itself, by reference, unless the state is not
        :attr:`whole`."""
        stack = self._levels[level - 1]
        if self.whole:
            return stack
        np = require_numpy()
        return np.where(stack == MISSING_CODE, DEFAULT_CODE, stack)

    def set_leaf_votes(self, best, best_count) -> None:
        """Record the final ``(rows, parents)`` child-window votes of the leaf.

        *best* is each leaf window's top code and *best_count* its tally,
        exactly as a fresh :func:`window_tallies` + argmax over the current
        leaf stack would give them.
        """
        self._leaf_votes = (best, best_count)

    def leaf_votes(self):
        """The recorded ``(best, best_count)`` of the leaf level, or ``None``."""
        return self._leaf_votes

    def row_tree(self, i: int, meter=None):
        """Participant *i*'s state as a standalone :class:`NumpyEIGTree`.

        Copies the row buffers (the returned tree owns its levels); used by
        tests and reporting to reuse the per-processor accessors/kernels
        against a batched execution.
        """
        from .tree import NumpyEIGTree
        return NumpyEIGTree.adopt_levels(
            self.index.source, self.index.processors,
            [stack[i].copy() for stack in self._levels], meter)


# ---------------------------------------------------------------------------
# The shared vote kernel: every per-level majority pass of the numpy engine
# (resolve, resolve', the Fault Discovery Rule, Algorithm C's shift_{3→2})
# goes through these three helpers, so vote semantics live in exactly one
# place.
# ---------------------------------------------------------------------------

def vote_windows(codes, rows: int, branch: int):
    """Reshape a level's code buffer into its ``(rows, branch)`` vote matrix.

    (:func:`window_tallies` picks an offset dtype wide enough for its own
    arithmetic, so no upcast happens here.)
    """
    return codes.reshape(rows, branch)


def window_tallies(windows, num_codes: int):
    """Per-window vote tallies: ``tallies[i, c]`` counts code ``c`` in row ``i``.

    One ``bincount`` over offset codes (row ``i`` shifted by ``i·num_codes``)
    tallies every window of the level at once.  The offset arithmetic runs in
    int64: it cannot overflow there, and ``bincount`` consumes native intp
    input directly instead of recasting.
    """
    np = require_numpy()
    rows = windows.shape[0]
    total = rows * num_codes
    if rows <= _OFFSET_CACHE_ROWS:
        offsets = _window_offsets(rows, num_codes)
    else:
        offsets = (np.arange(rows, dtype=np.int64) * num_codes)[:, None]
    flat = (windows + offsets).reshape(-1)
    return np.bincount(flat, minlength=total).reshape(rows, num_codes)


#: Offset columns are cached only below this row count: for small windows
#: the arange/multiply pair is a measurable share of the kernel, while a
#: large cached column would just pin memory for the process lifetime.
_OFFSET_CACHE_ROWS = 4096


@_lru_cache(maxsize=128)
def _window_offsets(rows: int, num_codes: int):
    """The ``(rows, 1)`` offset column of :func:`window_tallies`, cached.

    Row counts repeat every round of a run (they depend only on the tree
    shape and participant count), so the arange/multiply pair is worth
    keeping for the small windows it dominates.
    """
    np = require_numpy()
    return (np.arange(rows, dtype=np.int64) * num_codes)[:, None]


def strict_majority(tallies, branch: int):
    """Per-row ``(top code, holds a strict majority of branch)`` arrays.

    A strict majority is unique when it exists, so the argmax tie-break never
    affects rows where the second array is ``True``.
    """
    np = require_numpy()
    best = tallies.argmax(axis=1)
    best_count = tallies[np.arange(tallies.shape[0]), best]
    return best, 2 * best_count > branch
