"""python-vs-numpy backend equivalence gates (``docs/algorithms.md`` §12).

The numpy cascade backend is *statistical*-tier: its frontier-batched
rounds consume the RNG in a different order than the reference stream,
so draw-for-draw equality is off the table by design. What must hold
instead — and what this module pins — are the exact-graph invariants
that do not depend on the draw order:

* under ``p = 1`` every attempt succeeds, so the reachable set, the
  per-node final states, the attempt accounting and the round count are
  fully determined by the topology — both backends must agree exactly;
* under ``p = 0`` nothing ever succeeds — seeds only, and exactly one
  round of (failed) attempts from them;
* Monte-Carlo spread estimates must agree in distribution; the mean
  infected count over a trial batch is compared within a tolerance far
  wider than the standard error of the batch.

The numpy TreeDP sweep, by contrast, consumes no randomness and
preserves the interpreted sweep's float-expression order, so it is held
to the full **bit**-identity bar: same score floats, same initiator
decisions, for every budget.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.binarize import binarize_cascade_tree
from repro.core.tree_dp import KIsomitBTSolver
from repro.graphs.generators.random_graphs import (
    signed_erdos_renyi,
    signed_preferential_attachment,
)
from repro.graphs.generators.trees import random_general_tree
from repro.kernel import (
    compile_graph,
    run_ic_batch,
    run_ic_compiled,
    run_mfc_batch,
    run_mfc_compiled,
)
from repro.kernel.backends import resolve_backend
from repro.kernel.cascade import check_seeds_compiled
from repro.types import NodeState
from repro.utils.rng import derive_seed, spawn_rng


def _seeds(graph, rng, count=3):
    nodes = sorted(graph.nodes(), key=repr)[:count]
    return {
        node: NodeState.POSITIVE if i % 2 == 0 else NodeState.NEGATIVE
        for i, node in enumerate(nodes)
    }


def _saturated_graphs():
    """Graphs whose every weight is 1.0 — the ``p = 1`` regime."""
    yield signed_erdos_renyi(
        50, 0.08, positive_probability=0.7, weight_range=(1.0, 1.0), rng=11
    )
    yield signed_erdos_renyi(
        80, 0.04, positive_probability=0.3, weight_range=(1.0, 1.0), rng=12
    )
    yield signed_preferential_attachment(
        60, out_degree=3, positive_probability=0.8, weight_range=(1.0, 1.0), rng=13
    )


def _dead_graphs():
    """Graphs whose every weight is 0.0 — the ``p = 0`` regime."""
    yield signed_erdos_renyi(
        40, 0.10, positive_probability=0.6, weight_range=(0.0, 0.0), rng=21
    )
    yield signed_preferential_attachment(
        50, out_degree=2, positive_probability=0.4, weight_range=(0.0, 0.0), rng=22
    )


class TestExactGraphInvariants:
    """Deterministic regimes where both tiers must agree exactly."""

    @pytest.mark.parametrize("graph_index", range(3))
    def test_mfc_p1_reachability_and_attempts(self, graph_index):
        graph = list(_saturated_graphs())[graph_index]
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        py = resolve_backend("python")
        nx = resolve_backend("numpy")
        # allow_flips=False keeps p=1 MFC fully topology-determined
        # (flip chains under p=1 would re-introduce order sensitivity).
        rp, tried = py.mfc_cascade(
            compiled, validated, random.Random(5), 1.0, False, 10**9
        )
        rn, attempts = nx.mfc_cascade(
            compiled, validated, random.Random(5), 1.0, False, 10**9
        )
        assert rn.final_states == rp.final_states
        assert set(rn.final_states) == set(rp.final_states)
        assert attempts == sum(tried)
        assert rn.rounds == rp.rounds

    @pytest.mark.parametrize("graph_index", range(3))
    def test_ic_p1_reachability_and_attempts(self, graph_index):
        graph = list(_saturated_graphs())[graph_index]
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        py = resolve_backend("python")
        nx = resolve_backend("numpy")
        rp, tried = py.ic_cascade(compiled, validated, random.Random(6), True)
        rn, attempts = nx.ic_cascade(compiled, validated, random.Random(6), True)
        assert rn.final_states == rp.final_states
        assert attempts == sum(tried)
        assert rn.rounds == rp.rounds

    @pytest.mark.parametrize("graph_index", range(2))
    def test_p0_nothing_spreads(self, graph_index):
        graph = list(_dead_graphs())[graph_index]
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        py = resolve_backend("python")
        nx = resolve_backend("numpy")
        rp, tried = py.mfc_cascade(
            compiled, validated, random.Random(7), 3.0, True, 10**9
        )
        rn, attempts = nx.mfc_cascade(
            compiled, validated, random.Random(7), 3.0, True, 10**9
        )
        assert rn.final_states == validated
        assert rp.final_states == validated
        assert attempts == sum(tried)
        assert rn.rounds == rp.rounds

    def test_dispatch_wrappers_agree_with_backends(self):
        """`run_*_compiled(backend=...)` routes to the engine it names."""
        graph = signed_erdos_renyi(40, 0.1, weight_range=(1.0, 1.0), rng=31)
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        via_mfc = run_mfc_compiled(
            compiled, validated, random.Random(1), 1.0, False, 10**9, backend="numpy"
        )
        via_ic = run_ic_compiled(
            compiled, validated, random.Random(1), True, backend="numpy"
        )
        direct = resolve_backend("numpy")
        assert (
            via_mfc.final_states
            == direct.mfc_cascade(
                compiled, validated, random.Random(1), 1.0, False, 10**9
            )[0].final_states
        )
        assert (
            via_ic.final_states
            == direct.ic_cascade(compiled, validated, random.Random(1), True)[
                0
            ].final_states
        )


class TestSingleCascadeIsT1Batch:
    """A numpy single cascade is the batch loop run on one trial seed.

    The adapter draws that seed from the caller's generator, so the same
    ``random.Random`` replays the same cascade through either entry
    point: final states, rounds, attempts and the event-derived flip
    count all agree with the T = 1 batch summary.
    """

    def _world(self):
        graph = signed_erdos_renyi(
            120, 0.05, positive_probability=0.6, weight_range=(0.2, 0.8), rng=41
        )
        compiled = compile_graph(graph)
        return compiled, check_seeds_compiled(compiled, _seeds(graph, None))

    @pytest.mark.parametrize("seed", range(4))
    def test_mfc_matches_t1_batch(self, seed):
        compiled, validated = self._world()
        trial_seed = random.Random(seed).getrandbits(64)
        summary = run_mfc_batch(
            compiled, validated, [trial_seed], alpha=2.0, allow_flips=True,
            max_rounds=10**9, backend="numpy", record_states=True,
        )
        result, attempts = resolve_backend("numpy").mfc_cascade(
            compiled, validated, random.Random(seed), 2.0, True, 10**9
        )
        assert result == run_mfc_compiled(
            compiled, validated, random.Random(seed), 2.0, True, 10**9,
            backend="numpy",
        )
        assert result.final_states == summary.final_states(0)
        assert result.rounds == summary.rounds[0]
        assert attempts == summary.attempts
        flips = sum(1 for event in result.events if event.was_flip)
        assert flips == summary.flips[0]
        # Seeds plus first activations: one non-flip event per infected node.
        assert len(result.events) - flips == summary.infected[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_ic_matches_t1_batch(self, seed):
        compiled, validated = self._world()
        trial_seed = random.Random(seed).getrandbits(64)
        summary = run_ic_batch(
            compiled, validated, [trial_seed], propagate_signs=True,
            backend="numpy", record_states=True,
        )
        result = run_ic_compiled(
            compiled, validated, random.Random(seed), True, backend="numpy"
        )
        assert result.final_states == summary.final_states(0)
        assert result.rounds == summary.rounds[0]
        assert len(result.events) == summary.infected[0]
        assert not any(event.was_flip for event in result.events)


@st.composite
def stated_trees(draw):
    """Random general trees with deterministic states and weights."""
    size = draw(st.integers(min_value=1, max_value=40))
    max_children = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tree = random_general_tree(size, max_children=max_children, rng=seed)
    rng = spawn_rng(seed, "backend-identity-states")
    for node in tree.nodes():
        tree.set_state(
            node, NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
        )
    alpha = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    return tree, alpha


class TestTreeDPBitIdentity:
    """The numpy sweep has no RNG: full bit-identity, decisions included."""

    @given(stated_trees())
    @settings(max_examples=40, deadline=None)
    def test_scores_and_decisions_bit_identical(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        reference = KIsomitBTSolver(binary, backend="python")
        vectorized = KIsomitBTSolver(binary, backend="numpy")
        ref_curve = reference.solve_curve(binary.num_real)
        vec_curve = vectorized.solve_curve(binary.num_real)
        assert len(vec_curve) == len(ref_curve)
        for ref, vec in zip(ref_curve, vec_curve):
            assert vec.k == ref.k
            assert vec.score == ref.score  # bitwise, no tolerance
            assert vec.initiators == ref.initiators  # same argmax decisions

    @given(stated_trees())
    @settings(max_examples=20, deadline=None)
    def test_memo_accounting_matches(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        reference = KIsomitBTSolver(binary, backend="python")
        vectorized = KIsomitBTSolver(binary, backend="numpy")
        reference.solve_curve(binary.num_real)
        vectorized.solve_curve(binary.num_real)
        assert vectorized.memo_states == reference.memo_states


class TestSpreadDistribution:
    """Monte-Carlo estimates must agree in distribution across tiers."""

    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=8, deadline=None)
    def test_mean_spread_within_tolerance(self, base_seed):
        graph = signed_erdos_renyi(
            120, 0.05, positive_probability=0.7, weight_range=(0.1, 0.6), rng=41
        )
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        trials = 40

        def mean_spread(backend):
            total = 0
            for trial in range(trials):
                result = run_mfc_compiled(
                    compiled,
                    validated,
                    spawn_rng(derive_seed(base_seed, "spread", trial)),
                    alpha=2.0,
                    allow_flips=True,
                    max_rounds=10**9,
                    backend=backend,
                )
                total += len(result.final_states)
            return total / trials

        mean_py = mean_spread("python")
        mean_np = mean_spread("numpy")
        # Means over 40 cascades on this workload have a standard error
        # of ~1 node; 20% relative (floor 4 nodes) is many sigmas wide
        # while still catching any systematic probability distortion.
        assert abs(mean_py - mean_np) <= max(4.0, 0.2 * mean_py)
