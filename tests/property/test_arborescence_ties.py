"""Edmonds on tied scores: optimality against two oracles, and canonicity.

Jaccard link weights repeat often, so many optimal branchings exist. The
heap engine must still find an optimum — the same root count and total
score as the level-by-level oracle and as networkx — and must pick the
same one whatever order the graph's nodes and edges were inserted in.
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arborescence import SCORE_TRANSFORMS, maximum_spanning_branching
from repro.graphs.signed_digraph import SignedDiGraph
from tests.oracles.edmonds_levels import branching_edges_levels

TIED_WEIGHTS = [0.0, 0.25, 1.0 / 3.0, 0.5, 1.0]


@st.composite
def tied_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    graph = SignedDiGraph()
    graph.add_nodes(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                graph.add_edge(u, v, draw(st.sampled_from([-1, 1])), draw(st.sampled_from(TIED_WEIGHTS)))
    return graph


def solution(graph, edges, score):
    transform = SCORE_TRANSFORMS[score]
    roots = graph.number_of_nodes() - len(edges)
    return roots, sum(transform(graph.weight(u, v)) for u, v in edges)


def engine_edges(graph, score="log"):
    return sorted(((u, v) for u, v, _ in maximum_spanning_branching(graph, score).iter_edges()), key=repr)


def networkx_edges(graph, score):
    """networkx's maximum branching, shifted so every kept edge is worth it.

    The shift makes dropping an edge (adding a root) always cost more
    than any score difference, which is the virtual-root criterion.
    """
    transform = SCORE_TRANSFORMS[score]
    shift = 2.0 * graph.number_of_nodes() * 30.0
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(graph.nodes())
    for u, v, data in graph.iter_edges():
        nx_graph.add_edge(u, v, weight=transform(data.weight) + shift)
    return list(nx.maximum_branching(nx_graph).edges())


def shuffled_copy(graph, seed):
    """Same content, nodes and edges inserted in a shuffled order."""
    rng = random.Random(seed)
    nodes = graph.nodes()
    rng.shuffle(nodes)
    edges = list(graph.iter_edges())
    rng.shuffle(edges)
    copy = SignedDiGraph(name=graph.name)
    for node in nodes:
        copy.add_node(node, graph.state(node))
    for u, v, data in edges:
        copy.add_edge(u, v, int(data.sign), data.weight)
    return copy


def nested_two_cycles(length):
    """Chain where every node prefers its left neighbour as parent.

    0 <-> 1 closes a 2-cycle, which then forms a 2-cycle with 2, and so
    on: each contraction nests inside the next. The optimum is the path
    0 -> 1 -> ... rooted at 0.
    """
    graph = SignedDiGraph()
    for i in range(length - 1):
        graph.add_edge(i, i + 1, 1, 0.9)
        graph.add_edge(i + 1, i, 1, 0.5)
    return graph


@pytest.mark.parametrize("score", ["log", "raw"])
class TestTiedScoresAreOptimal:
    @given(graph=tied_digraphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_level_oracle(self, graph, score):
        roots, total = solution(graph, engine_edges(graph, score), score)
        oracle_roots, oracle_total = solution(graph, branching_edges_levels(graph, score), score)
        assert roots == oracle_roots
        assert abs(total - oracle_total) <= 1e-9

    @given(graph=tied_digraphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx(self, graph, score):
        roots, total = solution(graph, engine_edges(graph, score), score)
        nx_roots, nx_total = solution(graph, networkx_edges(graph, score), score)
        assert roots == nx_roots
        assert abs(total - nx_total) <= 1e-9

    def test_nested_two_cycle_chain_matches_both_oracles(self, score):
        graph = nested_two_cycles(150)
        ours = solution(graph, engine_edges(graph, score), score)
        for reference in (branching_edges_levels(graph, score), networkx_edges(graph, score)):
            roots, total = solution(graph, reference, score)
            assert ours[0] == roots
            assert abs(ours[1] - total) <= 1e-9


class TestCanonicalTieBreak:
    @given(graph=tied_digraphs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_permuted_copy_yields_identical_edges(self, graph, seed):
        assert engine_edges(shuffled_copy(graph, seed)) == engine_edges(graph)

    def test_string_nodes_permuted(self):
        # Every weight ties, so only the tie-break picks the edges.
        graph = SignedDiGraph()
        names = ["a", "b", "c", "d", "e"]
        for u in names:
            for v in names:
                if u != v:
                    graph.add_edge(u, v, 1, 0.5)
        expected = engine_edges(graph)
        for seed in range(20):
            assert engine_edges(shuffled_copy(graph, seed)) == expected


def test_deep_nested_two_cycle_chain():
    # 5,000 nested contractions: heaps, walk and expansion use explicit
    # stacks only, so this must not hit the interpreter recursion limit.
    length = 5001
    graph = nested_two_cycles(length)
    edges = engine_edges(graph)
    assert edges == sorted(((i, i + 1) for i in range(length - 1)), key=repr)
    assert math.isclose(solution(graph, edges, "log")[1], (length - 1) * math.log(0.9))
