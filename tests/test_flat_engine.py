"""Property tests: the array engines agree with the reference oracle.

The ``"reference"`` engine (dict-of-tuples trees, recursive-specification
conversion functions) is the executable specification; the ``"fast"`` engine
(interned sequences, flat level-major buffers, batched bottom-up resolve) and
the ``"numpy"`` engine (the same layout on small-int code ndarrays with
``bincount`` majority votes) must both be observationally identical to it.
These tests drive every array engine against the oracle over randomized trees
— with and without repetitions, with missing entries and default
substitutions, across ``n ∈ {4..10}`` — and over full executions, and assert
equality of conversions (including ``⊥`` propagation), decisions,
discoveries, and metrics (including computation units, which the engines
charge identically by construction).  The numpy cases skip cleanly when numpy
is not installed.

The batched whole-run executor (``run_agreement(..., batched=True)``, see
:mod:`repro.runtime.batched`) joins the end-to-end comparisons as a fourth
mode: the EIG specs it accelerates are pinned four ways
(reference/fast/numpy/batched, including per-round message stats and
per-processor computation units), the specs it does not support are pinned to
fall back cleanly, and the random-liar adversary must stay byte-identical
across all four modes for the same seed (the rng draw order is part of the
observational contract).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import adversary_registry
from repro.core.algorithm_a import AlgorithmASpec
from repro.core.algorithm_b import AlgorithmBSpec
from repro.core.algorithm_c import AlgorithmCSpec
from repro.core.hybrid import HybridSpec
from repro.core.engine import numpy_available, use_engine
from repro.core.exponential import ExponentialSpec
from repro.core.fault_discovery import (FaultTracker,
                                        discover_during_conversion,
                                        discover_during_conversion_flat,
                                        discover_during_conversion_numpy)
from repro.core.fault_masking import discover_and_mask
from repro.core.protocol import ProtocolConfig
from repro.core.resolve import (flat_converted_dict, flat_resolve_levels,
                                numpy_resolve_levels, resolve, resolve_all,
                                resolve_prime)
from repro.core.sequences import sequences_of_length
from repro.core.tree import make_tree
from repro.core.values import DEFAULT_VALUE, is_bottom
from repro.runtime.metrics import ComputationMeter
from repro.runtime.simulation import run_agreement

ADVERSARY_NAMES = sorted(adversary_registry())

#: The array-backed engines under test, each checked against "reference".
ARRAY_ENGINES = [
    "fast",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="numpy not installed")),
]

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def resolve_levels(tree, engine, conversion, t):
    """Engine-dispatched batched conversion over an array-backed tree."""
    if engine == "numpy":
        return numpy_resolve_levels(tree, conversion, t)
    return flat_resolve_levels(tree, conversion, t)


def root_of(tree, levels):
    """The converted root value of batched levels (decodes numpy codes)."""
    return flat_converted_dict(tree, levels)[tree.root]


def build_tree_pair(draw, n, height, repetitions, engine, domain_size=3,
                    missing_rate=5, internal_missing=False):
    """Build one reference tree and one array tree with identical (randomly
    chosen, possibly sparse) contents and return them.  Leaves may be
    absent; with *internal_missing*, so may every node below the root."""
    processors = tuple(range(n))
    reference = make_tree(0, processors, "reference", repetitions=repetitions)
    array_tree = make_tree(0, processors, engine, repetitions=repetitions)
    for length in range(1, height + 1):
        for seq in sequences_of_length(length, 0, processors, repetitions):
            present = draw(st.integers(min_value=0, max_value=missing_rate))
            if present == 0 and (length == height
                                 or (internal_missing and length > 1)):
                continue  # a missing node: reads fall back to the default
            value = draw(st.integers(min_value=0, max_value=domain_size - 1))
            reference.store(seq, value)
            array_tree.store(seq, value)
    # The root always exists (it is stored in round 1 by every protocol).
    if not reference.has((0,)):
        reference.store((0,), DEFAULT_VALUE)
        array_tree.store((0,), DEFAULT_VALUE)
    return reference, array_tree


@pytest.mark.parametrize("engine", ARRAY_ENGINES)
class TestBatchedResolveAgainstOracle:
    @_settings
    @given(data=st.data())
    def test_resolve_matches_recursive_oracle(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=10))
        height = data.draw(st.integers(min_value=1, max_value=min(4, n - 1)))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=False,
                                                engine=engine)
        expected = resolve_all(reference, "resolve", t=1)
        levels = resolve_levels(array_tree, engine, "resolve", t=1)
        assert flat_converted_dict(array_tree, levels) == expected
        assert root_of(array_tree, levels) == resolve(reference, (0,))

    @_settings
    @given(data=st.data())
    def test_resolve_prime_matches_recursive_oracle(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=10))
        height = data.draw(st.integers(min_value=1, max_value=min(4, n - 1)))
        t = data.draw(st.integers(min_value=1, max_value=3))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=False,
                                                engine=engine)
        expected = resolve_all(reference, "resolve_prime", t=t)
        levels = resolve_levels(array_tree, engine, "resolve_prime", t=t)
        assert flat_converted_dict(array_tree, levels) == expected
        # ⊥ propagation at the root matches too.
        root_reference = resolve_prime(reference, (0,), t)
        root_value = root_of(array_tree, levels)
        assert is_bottom(root_value) == is_bottom(root_reference)
        assert root_value == root_reference

    @_settings
    @given(data=st.data())
    def test_repetition_trees_match(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=8))
        height = data.draw(st.integers(min_value=1, max_value=3))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=True,
                                                engine=engine)
        expected = resolve_all(reference, "resolve", t=1)
        levels = resolve_levels(array_tree, engine, "resolve", t=1)
        assert flat_converted_dict(array_tree, levels) == expected

    @_settings
    @given(data=st.data())
    def test_meter_charges_match_reference(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=8))
        height = data.draw(st.integers(min_value=1, max_value=3))
        conversion = data.draw(st.sampled_from(["resolve", "resolve_prime"]))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=False,
                                                engine=engine,
                                                missing_rate=10)
        before_reference = reference.meter.units
        before_array = array_tree.meter.units
        resolve_all(reference, conversion, t=2)
        resolve_levels(array_tree, engine, conversion, t=2)
        assert (reference.meter.units - before_reference
                == array_tree.meter.units - before_array)


def _partial_tree_case(data, engine, internal_missing):
    """A reference/array tree pair with absent leaves (and, with
    *internal_missing*, absent internal nodes), plus ``t`` and an initial
    ``L_p`` of at most ``t`` suspects."""
    repetitions = data.draw(st.booleans())
    n = data.draw(st.integers(min_value=4, max_value=8))
    height = data.draw(st.integers(
        min_value=2, max_value=3 if repetitions else min(4, n - 1)))
    reference, array_tree = build_tree_pair(
        data.draw, n, height, repetitions=repetitions, engine=engine,
        missing_rate=3, internal_missing=internal_missing)
    t = data.draw(st.integers(min_value=1, max_value=3))
    suspects = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1),
                                 max_size=t))
    return reference, array_tree, t, suspects


@pytest.mark.parametrize("engine", ARRAY_ENGINES)
class TestDiscoveryOnPartialTrees:
    """Fault discovery over trees with absent nodes (built through
    ``store``): absent children vote as the default, absent parents are not
    examined, and masking rewrites — and charges — stored nodes only."""

    @_settings
    @given(data=st.data())
    def test_discover_and_mask_matches_reference(self, data, engine):
        reference, array_tree, t, suspects = _partial_tree_case(
            data, engine, internal_missing=data.draw(st.booleans()))
        height = reference.num_levels
        observed = {}
        for tree in (reference, array_tree):
            tracker = FaultTracker(0, t)
            tracker.add_all(sorted(suspects), 1)
            before = tree.meter.units
            newly = discover_and_mask(tree, height, tracker, round_number=2)
            observed[tree is reference] = (
                newly, tracker.history(), tree.meter.units - before,
                [tree.level(level) for level in range(1, height + 1)])
        assert observed[False] == observed[True]

    @_settings
    @given(data=st.data())
    def test_discover_during_conversion_matches_reference(self, data, engine):
        # Leaves only: with absent internal nodes the reference pass
        # examines stored parents, the array passes every converted parent.
        reference, array_tree, t, suspects = _partial_tree_case(
            data, engine, internal_missing=False)
        conversion = data.draw(st.sampled_from(["resolve", "resolve_prime"]))
        expected_meter = ComputationMeter()
        expected = discover_during_conversion(
            reference, resolve_all(reference, conversion, t), set(suspects),
            t, meter=expected_meter)
        discover = (discover_during_conversion_numpy if engine == "numpy"
                    else discover_during_conversion_flat)
        meter = ComputationMeter()
        found = discover(array_tree.index,
                         resolve_levels(array_tree, engine, conversion, t),
                         array_tree.num_levels, set(suspects), t, meter=meter)
        assert found == expected
        assert meter.units == expected_meter.units


def _run_mode(mode, spec_factory, config, faulty, adversary, seed):
    """One full execution in an engine mode ("batched" = the whole-run path)."""
    batched = mode == "batched"
    with use_engine("numpy" if batched else mode):
        return run_agreement(spec_factory(), config, faulty, adversary,
                             seed=seed, batched=batched)


def _run_engine_vs_reference(engine, spec_factory, n, t, faulty,
                             adversary_name, value, seed):
    results = {}
    for run_engine in (engine, "reference"):
        config = ProtocolConfig(n=n, t=t, initial_value=value)
        results[run_engine] = _run_mode(run_engine, spec_factory, config,
                                        faulty,
                                        adversary_registry()[adversary_name](),
                                        seed)
    candidate, reference = results[engine], results["reference"]
    context = (engine, adversary_name, sorted(faulty), value, seed)
    assert candidate.decisions == reference.decisions, context
    assert candidate.discovered == reference.discovered, context
    assert candidate.discovery_logs == reference.discovery_logs, context
    assert candidate.metrics.summary() == reference.metrics.summary(), context


@pytest.mark.parametrize("engine", ARRAY_ENGINES)
class TestEndToEndEngineEquivalence:
    _e2e_settings = settings(max_examples=12, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

    @_e2e_settings
    @given(data=st.data())
    def test_exponential_runs_identically(self, data, engine):
        n, t = 7, 2
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, ExponentialSpec, n, t, faulty,
                                 adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_algorithm_b_runs_identically(self, data, engine):
        n, t = 9, 2
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, lambda: AlgorithmBSpec(2), n, t,
                                 faulty, adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_algorithm_a_runs_identically(self, data, engine):
        # Algorithm A is the only user of conversion-time fault discovery
        # (discover_during_conversion_flat / _numpy), so this also pins that
        # path for both array engines.
        n, t = 10, 3
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, lambda: AlgorithmASpec(3), n, t,
                                 faulty, adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_hybrid_runs_identically(self, data, engine):
        n, t = 10, 3
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, lambda: HybridSpec(3), n, t, faulty,
                                 adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_algorithm_c_runs_identically(self, data, engine):
        n, t = 14, 2
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, AlgorithmCSpec, n, t, faulty,
                                 adversary_name, value, seed)


#: The EIG specs the batched whole-run executor accelerates, with the same
#: (n, t) cells the per-engine e2e tests use.
BATCHED_SPECS = [
    ("exponential", ExponentialSpec, 7, 2),
    ("algorithm-b", lambda: AlgorithmBSpec(2), 9, 2),
    ("algorithm-a", lambda: AlgorithmASpec(3), 10, 3),
]

ALL_MODES = ("reference", "fast", "numpy", "batched")


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestBatchedRunEquivalence:
    """The batched executor is observationally identical, four ways."""

    _settings = settings(max_examples=10, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

    @_settings
    @given(data=st.data())
    @pytest.mark.parametrize("label, spec_factory, n, t", BATCHED_SPECS)
    def test_four_way_observational_identity(self, data, label, spec_factory,
                                             n, t):
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        config = ProtocolConfig(n=n, t=t, initial_value=value)
        results = {
            mode: _run_mode(mode, spec_factory, config, faulty,
                            adversary_registry()[adversary_name](), seed)
            for mode in ALL_MODES
        }
        reference = results["reference"]
        for mode in ALL_MODES[1:]:
            candidate = results[mode]
            context = (label, mode, adversary_name, sorted(faulty), value,
                       seed)
            assert candidate.decisions == reference.decisions, context
            assert candidate.discovered == reference.discovered, context
            assert candidate.discovery_logs == reference.discovery_logs, context
            assert (candidate.metrics.summary()
                    == reference.metrics.summary()), context
            assert (candidate.metrics.computation_units
                    == reference.metrics.computation_units), context
            assert candidate.metrics.sent == reference.metrics.sent, context

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("faulty", [frozenset({5, 6}),
                                        frozenset({0, 6})],
                             ids=["correct-source", "faulty-source"])
    def test_random_liar_is_seed_reproducible_across_modes(self, faulty,
                                                           seed):
        """The random liar's rng draw order is part of the contract.

        The same seed must produce byte-identical decisions, discoveries,
        and discovery logs whichever execution mode runs the adversary —
        including the batched path, whose shadows broadcast by reference.
        """
        from repro.adversary import RandomLiarAdversary
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        results = {
            mode: _run_mode(mode, ExponentialSpec, config, faulty,
                            RandomLiarAdversary(), seed)
            for mode in ALL_MODES
        }
        reference = results["reference"]
        for mode in ALL_MODES[1:]:
            candidate = results[mode]
            assert candidate.decisions == reference.decisions, (mode, seed)
            assert candidate.discovered == reference.discovered, (mode, seed)
            assert (candidate.discovery_logs
                    == reference.discovery_logs), (mode, seed)

    def test_batched_supported_covers_exactly_the_eig_specs(self):
        from repro.runtime.batched import batched_supported
        assert batched_supported(ExponentialSpec(),
                                 ProtocolConfig(n=7, t=2))
        assert batched_supported(AlgorithmASpec(3),
                                 ProtocolConfig(n=10, t=3))
        assert batched_supported(AlgorithmBSpec(2),
                                 ProtocolConfig(n=9, t=2))
        assert not batched_supported(HybridSpec(3),
                                     ProtocolConfig(n=10, t=3))
        assert not batched_supported(AlgorithmCSpec(),
                                     ProtocolConfig(n=14, t=2))

    def test_row_tree_bridges_batched_state_to_per_processor_kernels(self):
        """BatchedEIGState.row_tree / NumpyEIGTree.adopt_levels round-trip.

        A row extracted from a stacked state must behave exactly like a
        per-processor tree with the same contents: identical dict-shaped
        level views, and the per-processor conversion kernel over the row
        tree must match the whole-run conversion's row.
        """
        from repro.core.npsupport import BatchedEIGState, VALUE_CODEC
        from repro.core.resolve import batched_resolve_levels
        from repro.core.sequences import sequence_index
        import numpy as np

        n, count, height, t = 6, 3, 3, 1
        processors = tuple(range(n))
        index = sequence_index(0, processors, False)
        state = BatchedEIGState(index, count)
        code_of = VALUE_CODEC.code

        def value_at(row, level, node_id):
            return (row + level + node_id) % 2

        state.set_roots(np.asarray(
            [code_of(value_at(i, 1, 0)) for i in range(count)],
            dtype="int32"))
        for level in range(2, height + 1):
            size = index.level_size(level)
            state.append_level(np.asarray(
                [[code_of(value_at(i, level, node_id))
                  for node_id in range(size)] for i in range(count)],
                dtype="int32"))

        batched_levels, _charge = batched_resolve_levels(state, "resolve", t)
        for i in range(count):
            tree = state.row_tree(i)
            for level in range(1, height + 1):
                expected = {
                    seq: value_at(i, level, node_id)
                    for node_id, seq in enumerate(index.sequences(level))
                }
                assert tree.level(level) == expected, (i, level)
            single_levels = numpy_resolve_levels(tree, "resolve", t)
            for level in range(height):
                assert (batched_levels[level][i]
                        == single_levels[level]).all(), (i, level)

    def test_batched_flag_falls_back_cleanly_for_unsupported_specs(self):
        """batched=True on a non-EIG spec runs the per-processor driver."""
        config = ProtocolConfig(n=14, t=2, initial_value=1)
        faulty = frozenset({12, 13})
        with use_engine("numpy"):
            batched = run_agreement(AlgorithmCSpec(), config, faulty,
                                    adversary_registry()["two-faced"](),
                                    batched=True)
        reference = _run_mode("reference", AlgorithmCSpec, config, faulty,
                              adversary_registry()["two-faced"](), 0)
        assert batched.decisions == reference.decisions
        assert batched.metrics.summary() == reference.metrics.summary()
