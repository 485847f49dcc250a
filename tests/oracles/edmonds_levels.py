"""Level-by-level Chu-Liu/Edmonds: the test oracle for the heap engine.

This is the engine :mod:`repro.core.arborescence` shipped before its
O(m log n) rewrite, with its logic unchanged. Each round lets every node
greedily select its best in-edge (the paper's Algorithm 2, MWSG),
finds the cycles that selection closes, contracts every one of them
with the score adjustment ``w'(u_x, u_o) = w(u_x, u_y) - w(π(u_y), u_y)``
(Algorithm 3, CC) and rescans all edges; the rounds are then expanded in
reverse. That costs O(n·m) on inputs with many nested cycles, which is
why production no longer uses it, but every step maps one-to-one onto
the paper's pseudo-code, so it is the readable oracle tests compare the
heap engine's optimum against.

Its tie-break follows edge insertion order, so on tied scores it may pick
a different (equally optimal) branching than the production engine:
compare root counts and total scores, never edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.arborescence import SCORE_TRANSFORMS, _MAX_ABS_SCORE
from repro.errors import ArborescenceError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Edge, Node


@dataclass
class _ArbEdge:
    """Internal edge record threaded through contractions.

    ``original`` always refers to the edge of the *input* graph this
    record descends from, so expansion is a constant-time lookup.
    """

    u: Node
    v: Node
    score: float
    original: Edge


def maximum_weight_spanning_graph(
    graph: SignedDiGraph,
    score: str = "log",
) -> Dict[Node, Tuple[Node, float]]:
    """Algorithm 2 (MWSG): each node selects its best incoming edge.

    Returns:
        Mapping ``v -> (u, score)`` for every node ``v`` with at least one
        in-edge; in-degree-0 nodes are absent (they are forest roots).
    """
    transform = SCORE_TRANSFORMS[score]
    best: Dict[Node, Tuple[Node, float]] = {}
    for v in graph.nodes():
        chosen: Optional[Tuple[Node, float]] = None
        for u, _, data in sorted(graph.in_edges(v), key=lambda e: repr(e[0])):
            if u == v:
                continue
            s = transform(data.weight)
            if chosen is None or s > chosen[1]:
                chosen = (u, s)
        if chosen is not None:
            best[v] = chosen
    return best


def find_circles(parent: Dict[Node, Node]) -> List[List[Node]]:
    """Find all directed cycles in a partial functional graph ``v -> parent``.

    ``parent`` maps each node to its single selected in-neighbour; nodes
    without an entry are roots. Each cycle is returned once, as a list of
    its member nodes in traversal order.
    """
    color: Dict[Node, int] = {}  # 0 unseen implicit, 1 in-progress, 2 done
    cycles: List[List[Node]] = []
    for start in parent:
        if color.get(start):
            continue
        path: List[Node] = []
        node: Optional[Node] = start
        while node is not None and color.get(node, 0) == 0:
            color[node] = 1
            path.append(node)
            node = parent.get(node)
        if node is not None and color.get(node) == 1:
            # Found a new cycle: the suffix of `path` starting at `node`.
            cycle_start = path.index(node)
            cycles.append(path[cycle_start:])
        for visited in path:
            color[visited] = 2
    return cycles


def _greedy_in_edges(
    nodes: Sequence[Node], edges: Sequence[_ArbEdge], root: Node
) -> Dict[Node, _ArbEdge]:
    """Pick the best-scoring in-edge for every non-root node."""
    best: Dict[Node, _ArbEdge] = {}
    for edge in edges:
        if edge.v == root or edge.u == edge.v:
            continue
        current = best.get(edge.v)
        if current is None or edge.score > current.score:
            best[edge.v] = edge
    missing = [v for v in nodes if v != root and v not in best]
    if missing:
        raise ArborescenceError(
            f"no incoming edge available for nodes {missing[:5]!r}; "
            "the input is not reachable from the root"
        )
    return best


def max_arborescence_levels(
    nodes: List[Node],
    edges: List[_ArbEdge],
    root: Node,
) -> List[_ArbEdge]:
    """Iterative Chu-Liu/Edmonds for a rooted maximum arborescence.

    Select/contract until the greedy selection is acyclic, recording one
    level record per contraction round, then expand the records in
    reverse. Returns the chosen edges (as the internal records, whose
    ``original`` fields identify input-graph edges).
    """
    next_label = 0
    # (node_of, cycle_edges, entry_member) per contraction round, innermost last.
    levels: List[Tuple[Dict[Node, Node], Dict[Node, Dict[Node, _ArbEdge]], Dict[Edge, Node]]] = []
    while True:
        best = _greedy_in_edges(nodes, edges, root)
        cycles = find_circles({v: e.u for v, e in best.items()})
        if not cycles:
            chosen = list(best.values())
            break

        # --- Contract every cycle (Algorithm 3) -------------------------
        node_of: Dict[Node, Node] = {}  # member -> supernode label
        cycle_edges: Dict[Node, Dict[Node, _ArbEdge]] = {}  # supernode -> {member: its cycle in-edge}
        for cycle in cycles:
            supernode: Node = ("__cycle__", next_label)
            next_label += 1
            cycle_edges[supernode] = {member: best[member] for member in cycle}
            for member in cycle:
                node_of[member] = supernode

        contracted_nodes: List[Node] = list(
            dict.fromkeys(node_of.get(n, n) for n in nodes)
        )
        # For each contracted in-edge remember which cycle member it
        # actually enters, to know which cycle edge to drop on expansion.
        entry_member: Dict[Edge, Node] = {}
        # Parallel-edge dedup: within one (source, target) supernode pair
        # only the best adjusted score can ever be selected.
        best_pair: Dict[Tuple[Node, Node], _ArbEdge] = {}
        for edge in edges:
            cu = node_of.get(edge.u, edge.u)
            cv = node_of.get(edge.v, edge.v)
            if cu == cv:
                continue  # intra-cycle edge: dropped
            if cv in cycle_edges:
                # w'(u_x, u_o) = w(u_x, u_y) - w(pi(u_y), u_y)
                displaced = cycle_edges[cv][edge.v]
                entry_member[edge.original] = edge.v
                candidate = _ArbEdge(cu, cv, edge.score - displaced.score, edge.original)
            else:
                candidate = _ArbEdge(cu, cv, edge.score, edge.original)
            current = best_pair.get((cu, cv))
            if current is None or candidate.score > current.score:
                best_pair[(cu, cv)] = candidate

        levels.append((node_of, cycle_edges, entry_member))
        nodes = contracted_nodes
        edges = list(best_pair.values())
        root = node_of.get(root, root)

    # --- Expand, innermost contraction first ------------------------------
    for node_of, cycle_edges, entry_member in reversed(levels):
        result: List[_ArbEdge] = []
        entered: Dict[Node, Node] = {}  # supernode -> member its in-edge enters
        for edge in chosen:
            result.append(edge)
            member = entry_member.get(edge.original)
            if member is not None and member in node_of:
                entered[node_of[member]] = member
        for supernode, members in cycle_edges.items():
            drop = entered.get(supernode)
            for member, cycle_edge in members.items():
                if member != drop:
                    result.append(cycle_edge)
        chosen = result
    return chosen


def branching_edges_levels(graph: SignedDiGraph, score: str = "log") -> List[Edge]:
    """Edges of the maximum spanning branching, computed by the oracle.

    Same virtual-root construction and score transforms as
    :func:`repro.core.arborescence.maximum_spanning_branching`.
    """
    transform = SCORE_TRANSFORMS[score]
    nodes = graph.nodes()
    if not nodes:
        return []
    virtual_root: Node = ("__virtual_root__",)
    virtual_score = -(2.0 * len(nodes) + 10.0) * _MAX_ABS_SCORE
    edges: List[_ArbEdge] = [
        _ArbEdge(virtual_root, v, virtual_score, (virtual_root, v)) for v in nodes
    ]
    for u, v, data in graph.iter_edges():
        if u != v:
            edges.append(_ArbEdge(u, v, transform(data.weight), (u, v)))
    chosen = max_arborescence_levels([virtual_root] + nodes, edges, virtual_root)
    return [edge.original for edge in chosen if edge.original[0] != virtual_root]
