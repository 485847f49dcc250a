"""Compiled TreeDP kernel ≡ recursive solver ≡ brute force.

The compiled flat-array kernel (:mod:`repro.kernel.tree_dp`) promises
**bit-identity** with the recursive dict-memo solver
(``tests/oracles/tree_dp_memo.py``): same ``score``
floats, same ``initiators`` dicts, for every feasible budget. Brute
force certifies optimality too, but only approximately — its objective
sums per-node terms in a different order, so last-bit ULP differences
are expected there.

RID's greedy k scan sizes the kernel's sweep from the β-penalised count
(:meth:`~repro.kernel.tree_dp.TreeDPKernel.penalized_count`); the hinted
selection must equal a plain budget-by-budget scan bit for bit, whatever
the hint says.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.rid as rid_module
from repro.core.binarize import binarize_cascade_tree
from repro.core.rid import RIDConfig
from repro.core.tree_dp import KIsomitBTSolver
from repro.kernel.tree_dp import TreeDPKernel
from repro.obs import MetricsRecorder
from repro.pipeline.stages import greedy_tree_selection
from repro.graphs.generators.trees import random_general_tree, star_graph
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.tree_dp_memo import RecursiveKIsomitBTSolver, brute_force_k_isomit


@st.composite
def stated_trees(draw):
    """Random general trees (fan-outs force dummies) with random states."""
    size = draw(st.integers(min_value=1, max_value=12))
    max_children = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tree = random_general_tree(size, max_children=max_children, rng=seed)
    rng = spawn_rng(seed, "states")
    for node in tree.nodes():
        tree.set_state(
            node, NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
        )
    alpha = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    return tree, alpha


class TestKernelIdentity:
    @given(stated_trees())
    @settings(max_examples=80, deadline=None)
    def test_kernel_bit_identical_to_recursive_all_k(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        reference = RecursiveKIsomitBTSolver(binary)
        compiled = KIsomitBTSolver(binary)
        # Every feasible budget, including k=0 and k=num_real.
        for k in range(0, binary.num_real + 1):
            ref = reference.solve(k)
            ker = compiled.solve(k)
            assert ker.k == ref.k
            assert ker.score == ref.score  # bitwise, no tolerance
            assert ker.initiators == ref.initiators

    @given(stated_trees())
    @settings(max_examples=60, deadline=None)
    def test_curve_matches_per_k_solves(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        reference = RecursiveKIsomitBTSolver(binary)
        curve = KIsomitBTSolver(binary).solve_curve(binary.num_real)
        assert len(curve) == binary.num_real
        for k, result in enumerate(curve, start=1):
            ref = reference.solve(k)
            assert result.k == k
            assert result.score == ref.score
            assert result.initiators == ref.initiators

    @given(stated_trees(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_kernel_optimal_vs_brute_force(self, world, k):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        budget = min(k, binary.num_real)
        dp = KIsomitBTSolver(binary).solve(budget)
        brute = brute_force_k_isomit(binary, budget, scoring="nearest")
        # Brute force sums in subset-enumeration order: approx only.
        assert abs(dp.score - brute.score) < 1e-9


class TestKernelEdgeCases:
    def _identical(self, binary, k):
        ref = RecursiveKIsomitBTSolver(binary).solve(k)
        ker = KIsomitBTSolver(binary).solve(k)
        assert ker.score == ref.score
        assert ker.initiators == ref.initiators
        return ker

    def test_lone_root(self):
        tree = SignedDiGraph()
        tree.add_node(0, NodeState.POSITIVE)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        assert self._identical(binary, 0).initiators == {}
        assert self._identical(binary, 1).initiators == {0: NodeState.POSITIVE}

    def test_all_dummy_children_star(self):
        # A 6-leaf star forces a full dummy fan-out layer under the hub.
        tree = star_graph(7, sign=1, weight=0.5)
        for node in tree.nodes():
            tree.set_state(node, NodeState.POSITIVE)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        assert binary.size() > binary.num_real  # dummies present
        for k in range(0, binary.num_real + 1):
            self._identical(binary, k)


def _plain_scan(config, binary):
    """RID's per-tree k scan on a fresh kernel, solving budget by budget
    (no cap hint: the kernel grows its sweep geometrically)."""
    kernel = TreeDPKernel(binary)
    max_k = binary.num_real
    if config.max_k_per_tree is not None:
        max_k = min(max_k, config.max_k_per_tree)
    best, best_objective, scanned = None, float("-inf"), 0
    for k in range(1, max_k + 1):
        scanned += 1
        result = kernel.solve(k)
        objective = result.score - (k - 1) * config.beta
        if objective > best_objective:
            best, best_objective = result, objective
        elif config.k_strategy == "greedy":
            break
    return best, best_objective, scanned


class TestPenalizedCapHint:
    """The greedy scan's sweep is sized by ``penalized_count``; the hint
    may decide how much is swept, never what is selected."""

    @given(
        stated_trees(),
        st.sampled_from([0.0, 0.1, 1.0, 2.0]),
        st.sampled_from(["greedy", "exhaustive"]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        st.sampled_from(["zero", "one", "true", "num_real"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_hinted_selection_equals_plain_scan(
        self, world, beta, strategy, max_k, forced
    ):
        tree, alpha = world
        config = RIDConfig(
            alpha=alpha, beta=beta, k_strategy=strategy, max_k_per_tree=max_k
        )
        binary = binarize_cascade_tree(tree, alpha=alpha)
        true_hint = TreeDPKernel(binary).penalized_count(beta)
        hint = {
            "zero": 0, "one": 1, "true": true_hint, "num_real": binary.num_real
        }[forced]

        class ForcedHintSolver(KIsomitBTSolver):
            def penalized_count(self, beta):
                return hint

        recorder = MetricsRecorder()
        with mock.patch.object(rid_module, "KIsomitBTSolver", ForcedHintSolver):
            selection = greedy_tree_selection(config, tree, recorder)
        best, best_objective, scanned = _plain_scan(config, binary)
        assert selection.tree_size == binary.num_real
        assert selection.k == best.k
        assert selection.score == best.score  # bitwise, no tolerance
        assert selection.penalized_objective == best_objective
        assert selection.initiators == best.initiators
        assert selection.scanned_k == scanned
        sweeps = recorder.metrics.counters["rid.tree_dp.sweeps"]
        if strategy == "exhaustive" or forced == "num_real":
            assert sweeps == 1

    @given(stated_trees(), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=120, deadline=None)
    def test_penalized_count_is_first_argmax_of_curve(self, world, beta):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        curve = KIsomitBTSolver(binary).solve_curve(binary.num_real)
        objectives = [r.score - (r.k - 1) * beta for r in curve]
        best = max(objectives)
        # Tie-free weights only: the count is a float-summed hint, so a
        # runner-up within rounding distance may legitimately win.
        runner_up = sorted(objectives)[-2] if len(objectives) > 1 else None
        assume(runner_up is None or best - runner_up > 1e-9)
        first = objectives.index(best) + 1
        assert TreeDPKernel(binary).penalized_count(beta) == first

    def test_lone_root_count_is_one_under_any_penalty(self):
        tree = SignedDiGraph()
        tree.add_node(0, NodeState.POSITIVE)
        kernel = TreeDPKernel(binarize_cascade_tree(tree, alpha=3.0))
        # At least one initiator per tree, however large the penalty.
        assert [kernel.penalized_count(beta) for beta in (0.0, 1.0, 5.0)] == [1, 1, 1]
