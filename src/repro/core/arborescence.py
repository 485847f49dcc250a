"""Maximum-weight spanning arborescences — paper Algorithms 2-4 substrate.

The cascade-tree extraction step (Sec. III-E2) finds, inside each
infected connected component, the maximum-likelihood activation forest

    T* = argmax_T  L(T) = Π_{(u,v) ∈ E_T} w(u, v)

using the Chu-Liu/Edmonds algorithm, in Tarjan's O(m log n) form
(Tarjan 1977; Gabow, Galil, Spencer and Tarjan 1986). The paper's steps
map onto it as follows:

* Algorithm 2 (MWSG), every node selecting its maximum-score incoming
  edge, is a pop from that node's mergeable heap of in-edges;
* Algorithm 3 (CC), contracting a selected cycle with the score
  adjustment ``w'(u_x, u_o) = w(u_x, u_y) - w(π(u_y), u_y)``, is a
  lazy offset on each member's heap, a heap merge and a union-find join;
* :func:`maximum_spanning_branching` runs the whole select/contract/expand
  loop (Algorithm 4's engine) with explicit stacks only, so deeply nested
  cycle structures never touch the interpreter recursion limit.

Ties are frequent (Jaccard weights repeat), so the tie-break is part of
the contract: nodes are indexed in ``repr`` order, edges in (source,
target) index order, and a tie goes to the smaller edge index. The
branching therefore depends only on the graph's content, never on the
order its nodes or edges were inserted.

Score transform: maximising ``Π w`` is maximising ``Σ log w``, so the
default score is ``log`` (clamped at a floor for zero weights). The
``raw`` transform reproduces the paper's Algorithm 3 literally (its
subtraction acts on raw weights, i.e. it maximises ``Σ w``); both give a
valid spanning branching, and tests cover both.

Spanning-forest semantics: a node only becomes a tree root when it has no
usable incoming edge at all — every other node receives exactly one
activation link. This is realised by running Edmonds with a virtual root
connected to every node at a score lower than any real alternative, which
simultaneously minimises the number of roots and maximises the likelihood
of the retained links, matching the paper's construction where forest
roots are exactly the in-degree-0 infected users.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ArborescenceError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node

#: Floor applied inside the log score so zero-weight edges stay usable
#: (they are worse than any positive-weight edge but better than no tree).
_LOG_FLOOR = 1e-12

#: Magnitude bound on any single transformed edge score: |log(1e-12)| < 28
#: for the log transform, 1 for the raw transform.
_MAX_ABS_SCORE = 30.0


def log_score(weight: float) -> float:
    """``log`` transform: maximising the sum maximises the product of weights."""
    return math.log(max(weight, _LOG_FLOOR))


def raw_score(weight: float) -> float:
    """Identity transform: the paper's literal Algorithm 3 arithmetic."""
    return float(weight)


SCORE_TRANSFORMS: Dict[str, Callable[[float], float]] = {
    "log": log_score,
    "raw": raw_score,
}


class _InEdgeHeaps:
    """Mergeable max-heaps of edges (skew heaps with lazy score offsets).

    Heap nodes are edge indices. ``lazy[x]`` is an offset still owed to
    ``x`` and its whole subtree, pushed one level down whenever ``x`` is
    touched, so adding a constant to every edge of a heap is O(1). The
    top of a heap is its highest adjusted score; ties go to the smaller
    edge index. Merging walks the right spines with an explicit stack,
    so no heap shape can reach the interpreter recursion limit.
    """

    def __init__(self, scores: List[float]) -> None:
        m = len(scores)
        self.key = list(scores)
        self.lazy = [0.0] * m
        self.left = [-1] * m
        self.right = [-1] * m

    def _push(self, x: int) -> None:
        delta = self.lazy[x]
        if delta:
            self.key[x] += delta
            self.lazy[x] = 0.0
            child = self.left[x]
            if child >= 0:
                self.lazy[child] += delta
            child = self.right[x]
            if child >= 0:
                self.lazy[child] += delta

    def merge(self, a: int, b: int) -> int:
        """Meld heaps ``a`` and ``b`` (-1 is the empty heap); returns the root."""
        if a < 0:
            return b
        if b < 0:
            return a
        key, left, right, push = self.key, self.left, self.right, self._push
        spine: List[int] = []
        while a >= 0 and b >= 0:
            push(a)
            push(b)
            if key[b] > key[a] or (key[b] == key[a] and b < a):
                a, b = b, a
            spine.append(a)
            a = right[a]
        tail = a if a >= 0 else b
        # Skew step: every spine node swaps its children on the way back up.
        for x in reversed(spine):
            right[x] = left[x]
            left[x] = tail
            tail = x
        return tail

    def pop(self, a: int) -> int:
        """Detach root ``a`` (its key is then final); returns the rest."""
        self._push(a)
        return self.merge(self.left[a], self.right[a])

    def add(self, a: int, delta: float) -> None:
        """Add ``delta`` to every score in heap ``a``."""
        if a >= 0:
            self.lazy[a] += delta


class _RollbackUnionFind:
    """Union by size without path compression, so joins can be undone."""

    def __init__(self, n: int) -> None:
        self.link = [-1] * n  # parent index, or -size for a representative
        self.history: List[Tuple[int, int]] = []

    def find(self, x: int) -> int:
        link = self.link
        while link[x] >= 0:
            x = link[x]
        return x

    def time(self) -> int:
        return len(self.history)

    def join(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        link = self.link
        if link[a] > link[b]:
            a, b = b, a
        self.history.append((a, link[a]))
        self.history.append((b, link[b]))
        link[a] += link[b]
        link[b] = a
        return True

    def rollback(self, time: int) -> None:
        link, history = self.link, self.history
        while len(history) > time:
            x, value = history.pop()
            link[x] = value


def _max_arborescence(
    n: int, src: Sequence[int], dst: Sequence[int], scores: List[float]
) -> List[int]:
    """Maximum arborescence rooted at node 0, in O(m log n).

    Edge ``e`` runs ``src[e] -> dst[e]`` with score ``scores[e]``; nodes
    are ``0..n-1``. Returns ``chosen`` with ``chosen[v]`` the index of
    ``v``'s in-edge (``chosen[0]`` is -1).

    Tarjan's formulation of Chu-Liu/Edmonds: each node keeps a heap of
    its in-edges. Walking from every node in index order, the current
    supernode takes its best in-edge and subtracts that edge's score from
    the rest of its heap — the paper's ``w'(u_x, u_o) = w(u_x, u_y) -
    w(π(u_y), u_y)`` as one lazy offset. When the walk closes a cycle,
    the members are joined in a rollback union-find and their heaps are
    merged into the new supernode's heap, which continues the walk. The
    contractions are then undone newest first: each cycle keeps all its
    edges except the one into the member its chosen in-edge enters.
    """
    heaps = _InEdgeHeaps(scores)
    heap = [-1] * n
    for e, v in enumerate(dst):
        heap[v] = heaps.merge(heap[v], e)

    uf = _RollbackUnionFind(n)
    find = uf.find
    seen = [-1] * n  # walk that finalised a supernode, -1 while open
    seen[0] = 0
    chosen = [-1] * n
    # (supernode, union-find time before the join, the cycle's edges)
    contractions: List[Tuple[int, int, List[int]]] = []
    for start in range(1, n):
        u = start
        path: List[int] = []
        picked: List[int] = []
        while seen[u] < 0:
            best = heap[u]
            while True:
                if best < 0:
                    raise ArborescenceError(
                        f"no incoming edge available for node index {u}; "
                        "the input is not reachable from the root"
                    )
                rest = heaps.pop(best)
                if find(src[best]) != u:
                    break
                best = rest  # edge inside the supernode: never usable again
            heaps.add(rest, -heaps.key[best])
            heap[u] = rest
            seen[u] = start
            path.append(u)
            picked.append(best)
            u = find(src[best])
            if seen[u] == start:
                # The walk closed a cycle: contract it into one supernode.
                time = uf.time()
                cycle: List[int] = []
                merged = -1
                while True:
                    member = path.pop()
                    cycle.append(picked.pop())
                    merged = heaps.merge(merged, heap[member])
                    if not uf.join(u, member):
                        break
                u = find(u)
                heap[u] = merged
                seen[u] = -1
                contractions.append((u, time, cycle))
        for e in picked:
            chosen[find(dst[e])] = e

    for supernode, time, cycle in reversed(contractions):
        uf.rollback(time)
        entering = chosen[supernode]
        for e in cycle:
            chosen[find(dst[e])] = e
        chosen[find(dst[entering])] = entering
    return chosen


def maximum_spanning_branching(
    graph: SignedDiGraph,
    score: str = "log",
) -> SignedDiGraph:
    """Maximum-likelihood spanning branching (activation forest) of ``graph``.

    Every node with any incoming edge receives exactly one activation
    link; in-degree-0 nodes become roots. Ties and cycles are resolved by
    Chu-Liu/Edmonds so that the total transformed score of retained links
    is maximal (``score='log'`` maximises the likelihood product).

    Returns:
        A new :class:`SignedDiGraph` over the same nodes (states copied)
        whose edges are the chosen activation links with their original
        signs/weights.

    Raises:
        KeyError: if ``score`` names an unknown transform.
    """
    transform = SCORE_TRANSFORMS[score]
    nodes = graph.nodes()
    forest = SignedDiGraph(name=f"{graph.name or 'graph'}-branching")
    for node in nodes:
        forest.add_node(node, graph.state(node))
    if not nodes:
        return forest

    # Canonical indexing makes the result depend only on the graph's
    # content: node i+1 is the i-th node in repr order (0 is the virtual
    # root), the virtual edges come first and the real edges follow in
    # (source index, target index) order, and heap ties go to the smaller
    # edge index.
    order = sorted(nodes, key=repr)
    index = {node: i for i, node in enumerate(order, start=1)}
    real = sorted(
        (index[u], index[v], transform(data.weight))
        for u, v, data in graph.iter_edges()
        if u != v
    )
    # Virtual edges mark forest roots. Their score must be low enough that
    # (a) a virtual edge never beats any chain of real alternatives and
    # (b) solutions with fewer virtual edges always win — but NOT so low
    # that float addition swallows real-score differences during cycle
    # contraction (a -1e15 constant loses everything below 0.125).
    # Contraction adjustments shift any score by at most n * _MAX_ABS_SCORE,
    # so this bound keeps virtual edges strictly dominated while preserving
    # full precision on real-score comparisons.
    virtual_score = -(2.0 * len(nodes) + 10.0) * _MAX_ABS_SCORE
    src = [0] * len(order) + [u for u, _, _ in real]
    dst = list(range(1, len(order) + 1)) + [v for _, v, _ in real]
    scores = [virtual_score] * len(order) + [s for _, _, s in real]

    chosen = _max_arborescence(len(order) + 1, src, dst, scores)
    for v in range(1, len(order) + 1):
        u = src[chosen[v]]
        if u == 0:
            continue  # a forest root
        parent, child = order[u - 1], order[v - 1]
        data = graph.edge(parent, child)
        forest.add_edge(parent, child, int(data.sign), data.weight)
    return forest


def branching_roots(branching: SignedDiGraph) -> List[Node]:
    """Roots (in-degree-0 nodes) of a branching, in deterministic order."""
    return sorted((v for v in branching.nodes() if branching.in_degree(v) == 0), key=repr)


def branching_likelihood(branching: SignedDiGraph) -> float:
    """``L(T) = Π w(u, v)`` over the branching's activation links."""
    likelihood = 1.0
    for _, _, data in branching.iter_edges():
        likelihood *= data.weight
    return likelihood
