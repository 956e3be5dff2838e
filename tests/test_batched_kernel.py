"""The batched round kernel: row-major level stacks and leaf-vote reuse.

Two properties of :mod:`repro.runtime.batched` that the engine-parity sweeps
in ``test_flat_engine.py`` would not notice if they regressed silently:

* **Layout.**  Every level stack of a :class:`BatchedEIGState` is
  C-contiguous, so each row a broadcast wraps is a contiguous buffer and the
  ``(rows · parents, branch)`` vote-window reshape is a view of the stack,
  never a copy of the whole level.
* **Leaf-vote reuse.**  In a conversion round, the discovery fixpoint's
  per-window votes over the leaf level stand in for the conversion's own
  tally of that level.  The votes must be exactly the fresh ones — also when
  the fixpoint masks rows and re-tallies them — and every path that cannot
  supply them (``resolve'``, discovery disabled, tiny levels, a fresh level
  or root) must tally afresh.

The observable checks compare against the reference oracle and the
per-processor numpy engine at ``n = 10, t = 3``, where the leaf level is
large enough for the vectorized kernels.
"""

import pytest

from repro.adversary import adversary_registry
from repro.adversary.transient import TransientCorruptionAdversary
from repro.baselines.psl import PeaseShostakLamportSpec
from repro.core.engine import numpy_available, use_engine
from repro.core.exponential import ExponentialSpec
from repro.core.protocol import ProtocolConfig
from repro.runtime.simulation import choose_faulty, run_agreement

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

N, T = 10, 3


def _run(mode, spec, faulty, adversary, seed):
    """One execution: "reference", "numpy" (per-processor) or "batched"."""
    config = ProtocolConfig(n=N, t=T, initial_value=1)
    batched = mode == "batched"
    with use_engine("numpy" if batched else mode):
        return run_agreement(spec, config, faulty, adversary, seed=seed,
                             batched=batched)


def _assert_same_observations(candidate, reference, context):
    assert candidate.decisions == reference.decisions, context
    assert candidate.discovered == reference.discovered, context
    assert candidate.discovery_logs == reference.discovery_logs, context
    assert candidate.metrics.summary() == reference.metrics.summary(), context
    assert (candidate.metrics.computation_units
            == reference.metrics.computation_units), context
    assert candidate.metrics.sent == reference.metrics.sent, context


def fresh_leaf_votes(state):
    """``(best, best_count)`` of the leaf windows, tallied afresh."""
    from repro.core.npsupport import VALUE_CODEC, window_tallies
    height = state.num_levels
    parents = state.index.level_size(height - 1)
    branch = state.index.branch(height - 1)
    tallies = window_tallies(
        state.raw_stack(height).reshape(state.count * parents, branch),
        len(VALUE_CODEC))
    return (tallies.argmax(axis=1).reshape(state.count, parents),
            tallies.max(axis=1).reshape(state.count, parents))


@pytest.fixture
def fixpoint_spy(monkeypatch):
    """Record the batched discovery fixpoints and the votes conversion reads.

    Yields a dict: ``round → [(rows tallied, votes returned), ...]`` per
    fixpoint, and under ``"converted"`` one entry per conversion — whether
    the leaf votes were on the state, after checking that recorded votes
    equal a fresh tally of the final leaf stack.
    """
    import repro.core.fault_masking as fault_masking
    import repro.runtime.batched as batched
    calls = {"converted": []}
    original_fired = fault_masking.batched_fired_ids
    original_fixpoint = fault_masking.discover_and_mask_batched
    original_resolve = batched.batched_resolve_levels
    current = []

    def resolve(state, conversion, t):
        votes = state.leaf_votes()
        if votes is not None:
            best, best_count = fresh_leaf_votes(state)
            assert (votes[0] == best).all()
            assert (votes[1] == best_count).all()
        calls["converted"].append(votes is not None)
        return original_resolve(state, conversion, t)

    def fired_ids(child_stacks, *args):
        fired, votes = original_fired(child_stacks, *args)
        current.append((child_stacks.shape[0], votes is not None))
        return fired, votes

    def fixpoint(state, level, trackers, round_number, meters, *args):
        current.clear()
        newly = original_fixpoint(state, level, trackers, round_number,
                                  meters, *args)
        calls[round_number] = list(current)
        return newly

    monkeypatch.setattr(fault_masking, "batched_fired_ids", fired_ids)
    monkeypatch.setattr(batched, "discover_and_mask_batched", fixpoint)
    monkeypatch.setattr(batched, "batched_resolve_levels", resolve)
    return calls


class TestLevelLayout:
    def test_every_level_stack_is_row_major(self, monkeypatch):
        import numpy as np
        from repro.core.npsupport import BatchedEIGState
        seen = []
        original = BatchedEIGState.append_level

        def spy(state, stack):
            seen.append((state.index, state.num_levels + 1, stack))
            original(state, stack)

        monkeypatch.setattr(BatchedEIGState, "append_level", spy)
        faulty = choose_faulty(N, T, source_faulty=True)
        _run("batched", ExponentialSpec(), faulty,
             adversary_registry()["equivocating-source-allies"](), 0)
        assert [level for _, level, _ in seen] == list(range(2, T + 2))
        for index, level, stack in seen:
            assert stack.flags.c_contiguous, level
            parents = index.level_size(level - 1)
            windows = stack.reshape(stack.shape[0] * parents,
                                    index.branch(level - 1))
            assert np.shares_memory(windows, stack), level

    def test_append_level_rejects_a_column_major_stack(self):
        import numpy as np
        from repro.core.npsupport import BatchedEIGState
        from repro.core.sequences import sequence_index
        index = sequence_index(0, tuple(range(6)), False)
        state = BatchedEIGState(index, 3)
        state.set_roots([1, 1, 1])
        stack = np.asfortranarray(np.ones((3, index.level_size(2)),
                                          dtype="int32"))
        with pytest.raises(ValueError, match="C-contiguous"):
            state.append_level(stack)
        state.append_level(np.ascontiguousarray(stack))
        assert state.num_levels == 2


#: Conversion rounds whose discovery fixpoint masks rows: the re-tallied
#: subset is either large enough for the vectorized kernel (its votes are
#: patched in) or a single row on the scalar path (the votes are dropped).
MASKING_CASES = [
    ("minimal-exposure", False, 0, True),
    ("minimal-exposure", True, 0, True),
    ("random-liar", True, 8, True),
    ("random-liar", False, 8, False),
    ("send-omission", False, 8, False),
]


class TestLeafVoteReuse:
    @pytest.mark.parametrize("adversary, source_faulty, seed, kept",
                             MASKING_CASES)
    def test_conversion_round_masking_matches_the_oracle(
            self, fixpoint_spy, adversary, source_faulty, seed, kept):
        faulty = choose_faulty(N, T, source_faulty=source_faulty)
        results = {
            mode: _run(mode, ExponentialSpec(), faulty,
                       adversary_registry()[adversary](), seed)
            for mode in ("batched", "reference", "numpy")
        }
        iterations = fixpoint_spy[T + 1]
        # The conversion round's fixpoint masked rows and re-tallied them,
        # on the path this case is meant to cover.
        assert len(iterations) >= 2, iterations
        assert all(vectorized for _, vectorized in iterations) == kept
        assert fixpoint_spy["converted"] == [kept]
        assert any(T + 1 in log
                   for log in results["reference"].discovery_logs.values())
        context = (adversary, source_faulty, seed)
        for mode in ("batched", "numpy"):
            _assert_same_observations(results[mode], results["reference"],
                                      context + (mode,))

    def test_structural_changes_drop_the_votes(self):
        import numpy as np
        from repro.core.npsupport import BatchedEIGState
        from repro.core.sequences import sequence_index
        index = sequence_index(0, tuple(range(6)), False)
        state = BatchedEIGState(index, 2)
        state.set_roots([1, 1])
        assert state.leaf_votes() is None
        best = np.ones((2, 1), dtype=np.int64)
        count = np.full((2, 1), 5, dtype=np.int64)
        state.set_leaf_votes(best, count)
        assert state.leaf_votes() == (best, count)
        state.append_level(np.ones((2, index.level_size(2)), dtype="int32"))
        assert state.leaf_votes() is None
        state.set_leaf_votes(best, count)
        state.reset_to_roots([1, 1])
        assert state.leaf_votes() is None

    @staticmethod
    def _state_with_leaf(seed):
        """A 4-level state at n=8 whose leaf takes the vectorized kernels."""
        import numpy as np
        from repro.core.npsupport import BatchedEIGState, VALUE_CODEC
        from repro.core.sequences import sequence_index
        index = sequence_index(0, tuple(range(8)), False)
        count = 4
        rng = np.random.default_rng(seed)
        codes = np.asarray([VALUE_CODEC.code(v) for v in (0, 1)],
                           dtype="int32")
        state = BatchedEIGState(index, count)
        state.set_roots(rng.choice(codes, size=count))
        for level in (2, 3, 4):
            state.append_level(np.ascontiguousarray(
                rng.choice(codes, size=(count, index.level_size(level)),
                           p=[0.3, 0.7])))
        assert state.raw_stack(4).size > 512  # the vectorized regime
        return state

    @staticmethod
    def _counting_tallies(monkeypatch):
        import importlib
        import repro.core.npsupport as npsupport
        # ``repro.core.resolve`` the attribute is the function; the module
        # is reached through the import system.
        resolve = importlib.import_module("repro.core.resolve")
        calls = []
        original = npsupport.window_tallies

        def counting(*args):
            calls.append(args[0].shape)
            return original(*args)

        monkeypatch.setattr(resolve, "window_tallies", counting)
        return calls

    def test_resolve_reads_the_recorded_votes(self, monkeypatch):
        from repro.core.resolve import batched_resolve_levels
        state = self._state_with_leaf(1)
        calls = self._counting_tallies(monkeypatch)
        fresh, charge = batched_resolve_levels(state, "resolve", T)
        fresh_calls = len(calls)
        assert fresh_calls >= 1  # the leaf level is tallied
        state.set_leaf_votes(*fresh_leaf_votes(state))
        calls.clear()
        reused, reused_charge = batched_resolve_levels(state, "resolve", T)
        assert len(calls) == fresh_calls - 1
        assert reused_charge == charge
        for level in range(4):
            assert reused[level].dtype == fresh[level].dtype
            assert (reused[level] == fresh[level]).all(), level

    def test_resolve_prime_tallies_fresh(self, monkeypatch):
        import numpy as np
        from repro.core.resolve import batched_resolve_levels
        state = self._state_with_leaf(2)
        calls = self._counting_tallies(monkeypatch)
        expected, _ = batched_resolve_levels(state, "resolve_prime", 1)
        fresh_calls = len(calls)
        assert fresh_calls >= 1  # the leaf level is tallied
        best, best_count = fresh_leaf_votes(state)
        # Poisoned votes: resolve' must not read them.
        state.set_leaf_votes(np.zeros_like(best), np.zeros_like(best_count))
        calls.clear()
        converted, _ = batched_resolve_levels(state, "resolve_prime", 1)
        assert len(calls) == fresh_calls
        for level in range(4):
            assert (converted[level] == expected[level]).all(), level

    def test_discovery_disabled_tallies_fresh(self, monkeypatch):
        from repro.core.npsupport import BatchedEIGState
        recorded = []
        original = BatchedEIGState.set_leaf_votes

        def spy(state, *args):
            recorded.append(state.num_levels)
            original(state, *args)

        monkeypatch.setattr(BatchedEIGState, "set_leaf_votes", spy)
        faulty = choose_faulty(N, T, source_faulty=True)
        adversary = "equivocating-source-allies"
        batched = _run("batched", PeaseShostakLamportSpec(), faulty,
                       adversary_registry()[adversary](), 0)
        assert recorded == []
        reference = _run("reference", PeaseShostakLamportSpec(), faulty,
                         adversary_registry()[adversary](), 0)
        _assert_same_observations(batched, reference, adversary)

    def test_transient_corruption_stays_identical(self):
        faulty = choose_faulty(N, T, source_faulty=False)

        def adversary():
            return TransientCorruptionAdversary(corrupt_rounds=3, victims=3,
                                                flips=4)

        batched = _run("batched", ExponentialSpec(), faulty, adversary(), 5)
        reference = _run("reference", ExponentialSpec(), faulty, adversary(),
                         5)
        _assert_same_observations(batched, reference, "transient")

    @pytest.mark.parametrize("adversary, source_faulty, seed, kept",
                             MASKING_CASES[:3])
    def test_two_shards_match_batched(self, adversary, source_faulty, seed,
                                      kept):
        from repro.runtime.sharding import run_sharded_if_supported
        faulty = choose_faulty(N, T, source_faulty=source_faulty)
        config = ProtocolConfig(n=N, t=T, initial_value=1)
        sharded = run_sharded_if_supported(
            ExponentialSpec(), config, faulty,
            adversary_registry()[adversary](), seed, shards=2)
        batched = _run("batched", ExponentialSpec(), faulty,
                       adversary_registry()[adversary](), seed)
        assert sharded is not None
        assert sharded.rounds == batched.rounds
        _assert_same_observations(sharded, batched,
                                  (adversary, source_faulty, seed))
