"""Compiled flat-array kernel for the k-ISOMIT-BT dynamic program.

This is the library's one k-ISOMIT-BT engine; the RID pipeline reaches
it as :class:`repro.core.tree_dp.KIsomitBTSolver`. Read directly, the
Sec. III-D recursion is a recursive, dict-memoised program (kept as the
test oracle in ``tests/oracles/tree_dp_memo.py``): every subproblem
lookup hashes a ``(uid, k, anc)`` tuple, every ``g``-path product walks
parent pointers through Python call frames, and deep (path-like)
cascade trees need stack frames proportional to their depth. The
arithmetic itself is tiny — the overhead is all interpreter
bookkeeping.

This module compiles a :class:`~repro.core.binarize.BinaryCascadeTree`
once into flat post-order arrays (:func:`compile_binary_tree` →
:class:`CompiledBinaryTree`) and runs the DP as a single explicit
post-order sweep (:class:`TreeDPKernel`), with three structural wins:

* **memo → list indexing.** Per node ``u`` the kernel fills one table
  indexed ``[budget][ancestor-depth]``: the nearest-initiator-ancestor
  argument of ``OPT(u, I, S, k)`` collapses to *the depth of that
  ancestor* because every ancestor of a node sits at a distinct depth.
  Lookups are list indexing; no tuples, no hashing, no recursion.
* **ancestor-path products in one pass.** ``gpath[u][a]`` — the
  ``Π g`` along the tree path from the depth-``a`` ancestor (exclusive)
  down to ``u`` — is computed in one root-to-leaf pass
  (``gpath[u] = gpath[parent] * g_in(u)``, then append the self-product
  ``1.0``), in exactly the recursive oracle's ``path_product``
  multiplication order, so every float is bit-identical.
* **one sweep, every budget.** The budget dimension is filled for all
  ``k ≤ cap`` in the same sweep, so :meth:`TreeDPKernel.solve_curve`
  returns the whole incremental k-search curve (what
  ``detect_with_budget`` needs per tree) for the cost of one traversal.

**Sizing the sweep for RID's greedy k search.** The scan (Sec. III-E3)
reads ``solve(1), solve(2), …`` and stops at the first ``k`` whose
penalised objective ``OPT(k+1) − kβ`` fails to beat ``OPT(k) − (k−1)β``;
its cost is the cap of the k-indexed sweep, so the cap must be known
before the scan starts. :meth:`TreeDPKernel.penalized_count` gets it
from one extra post-order sweep with *no* k axis: the same
``[node][ancestor-depth]`` states and the same ``own + left + right`` /
``1 + left[w] + right[w]`` recurrence, where each state carries
``(objective − β·count, count)`` and ties go to the smaller count. That
ordering is compatible with addition, so the root state is the
penalised optimum with the fewest initiators: ``k_e``, the *first*
global maximiser of ``OPT(k) − (k−1)β`` over ``k ≥ 1`` (an extra
per-node state for "no initiator ancestor, at least one initiator below"
keeps the count ≥ 1). The greedy scan stops at or before
the first global maximum (``k_g ≤ k_e``) and reads budgets up to
``k_g + 1``, so :meth:`TreeDPKernel.reserve` at ``min(max_k, k_e + 1)``
covers the whole scan in one sweep in exact arithmetic. The hint only
sizes the sweep, never decides a result: if float rounding near a tie
ever under-sizes it, ``solve`` falls back to growing the cap
geometrically from the hinted one (:meth:`TreeDPKernel._ensure`), and
the results are the same tables either way. :attr:`TreeDPKernel.sweeps`
counts the k-indexed sweeps so the fallback is observable.

Bit-identity contract: same float expressions in the same order, same
strict-improvement tie-breaking (not-an-initiator splits scanned in
ascending ``m`` first, then initiator splits), same reconstruction
traversal — the kernel's ``TreeDPResult`` equals the recursive oracle's
(score *and* initiators) bit for bit. ``tests/property/
test_tree_dp_kernel_identity.py`` and the ``bench_tree_dp.py --tiny``
CI gate pin this.

One deliberate asymmetry: the initiator case of the recurrence does not
depend on the ancestor argument (the children's nearest initiator is
``u`` itself), so the kernel evaluates it once per ``(u, k)`` and
broadcasts, where the recursive oracle recomputes the identical floats per
memo entry. Values and decisions are unchanged; work is not.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.errors import DynamicProgramError
from repro.types import Node, NodeState

_NEG_INF = float("-inf")


def _decision_typecode(cap: int) -> str:
    """Smallest signed ``array`` typecode holding every packed decision.

    A decision packs a split ``m <= cap`` as ``(m << 1) | initiator``,
    so the peak stored value is ``2 * cap + 1``. Typecode widths are
    platform-defined (``'l'`` is 4 bytes on some ABIs), so the guard
    asks each candidate for its actual ``itemsize`` instead of assuming
    — silent C-level wraparound here would corrupt reconstruction, not
    raise.

    Raises:
        DynamicProgramError: when no stdlib typecode can hold the peak
            (budgets beyond ``2**62`` — unreachable in practice, but
            loud beats wrong).
    """
    peak = 2 * cap + 1
    for code in ("h", "l", "q"):
        if peak < 1 << (8 * array(code).itemsize - 1):
            return code
    raise DynamicProgramError(
        f"budget cap {cap} overflows every supported decision typecode"
    )


class CompiledBinaryTree:
    """Flat post-order snapshot of a binarised cascade tree.

    Positions ``0..size-1`` enumerate slots in post-order (every child
    position precedes its parent; the root is last), so the DP sweep is
    a plain ``for`` loop. Build via :func:`compile_binary_tree`.

    Attributes:
        size: total slot count (including dummies).
        num_real: non-dummy slot count (the original tree's node count).
        root_pos: position of the root (always ``size - 1``).
        uids: original :class:`BinaryCascadeTree` uid per position.
        left / right / parent: child/parent positions (``-1`` for none).
        is_dummy: 1 for transform-inserted fan-out slots.
        g_in: per-slot incoming ``g`` factor (1.0 for root and dummies).
        real_size: non-dummy slots in each position's subtree (budget
            capacity clamps).
        depth: root depth 0; ``depth[p] = depth[parent[p]] + 1``.
        gpath: per-position ancestor-path ``g``-product row, indexed by
            ancestor depth: ``gpath[p][a] = Π g`` along ``(anc@a, p]``,
            with the trailing self-product ``gpath[p][depth[p]] = 1.0``.
        originals / states: reconstruction payload per position (the
            original cascade-tree node and its observed state).
    """

    __slots__ = (
        "size",
        "num_real",
        "root_pos",
        "uids",
        "left",
        "right",
        "parent",
        "is_dummy",
        "g_in",
        "real_size",
        "depth",
        "gpath",
        "originals",
        "states",
    )

    def __init__(self, tree) -> None:
        nodes = tree.nodes
        n = len(nodes)
        self.size = n
        self.num_real = tree.num_real
        if n == 0:
            self.root_pos = -1
            self.uids = []
            self.left = self.right = self.parent = []
            self.is_dummy = bytearray()
            self.g_in = []
            self.real_size = []
            self.depth = []
            self.gpath = []
            self.originals = []
            self.states = []
            return

        # Post-order positions: push-order DFS emits parents before
        # children; reversing yields children-before-parent.
        order: List[int] = []
        stack = [tree.root]
        while stack:
            uid = stack.pop()
            order.append(uid)
            node = nodes[uid]
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        order.reverse()
        pos_of = {uid: pos for pos, uid in enumerate(order)}

        self.root_pos = n - 1
        self.uids = order
        left = [-1] * n
        right = [-1] * n
        parent = [-1] * n
        is_dummy = bytearray(n)
        g_in = [1.0] * n
        originals: List[Optional[Node]] = [None] * n
        states: List[NodeState] = [None] * n  # type: ignore[list-item]
        for pos, uid in enumerate(order):
            node = nodes[uid]
            if node.left is not None:
                left[pos] = pos_of[node.left]
            if node.right is not None:
                right[pos] = pos_of[node.right]
            if node.parent is not None:
                parent[pos] = pos_of[node.parent]
            if node.is_dummy:
                is_dummy[pos] = 1
            g_in[pos] = node.g_in
            originals[pos] = node.original
            states[pos] = node.state
        self.left, self.right, self.parent = left, right, parent
        self.is_dummy, self.g_in = is_dummy, g_in
        self.originals, self.states = originals, states

        # Subtree capacities (post-order: children first).
        real_size = [0] * n
        for pos in range(n):
            s = 0 if is_dummy[pos] else 1
            if left[pos] >= 0:
                s += real_size[left[pos]]
            if right[pos] >= 0:
                s += real_size[right[pos]]
            real_size[pos] = s
        self.real_size = real_size

        # Depths and ancestor-path g-products, one root-to-leaf pass
        # (reversed post-order visits every parent before its children).
        # Row recurrence gpath[p] = [x * g for x in gpath[parent]] + [1.0]
        # multiplies top-down exactly like the recursive oracle's
        # path_product, so every product is bit-identical to it.
        depth = [0] * n
        gpath: List[array] = [None] * n  # type: ignore[list-item]
        for pos in range(n - 1, -1, -1):
            par = parent[pos]
            if par < 0:
                gpath[pos] = array("d", (1.0,))
                continue
            depth[pos] = depth[par] + 1
            g = g_in[pos]
            row = [x * g for x in gpath[par]]
            row.append(1.0)
            gpath[pos] = array("d", row)
        self.depth = depth
        self.gpath = gpath


def compile_binary_tree(tree) -> CompiledBinaryTree:
    """Compile a :class:`BinaryCascadeTree` into flat post-order arrays."""
    return CompiledBinaryTree(tree)


class TreeDPKernel:
    """Iterative k-ISOMIT-BT solver over one binarised cascade tree.

    Also importable as :class:`repro.core.tree_dp.KIsomitBTSolver`.
    ``tree`` may be a :class:`~repro.core.binarize.BinaryCascadeTree` or
    a :class:`CompiledBinaryTree`; a binarised tree is compiled on first
    use, so construction is cheap and compilation is paid (and timed)
    with the first solve. ``backend`` picks the sweep engine
    (``'python'``, ``'numpy'``, ``'auto'``; see
    :mod:`repro.kernel.backends`; ``None`` defers to the
    ``REPRO_KERNEL_BACKEND`` default). Both sweeps are bit-identical.

    One :meth:`_sweep` fills, for every position, a score/decision table
    indexed ``[budget][ancestor-depth]`` in a single post-order loop.
    Tables are shared across budgets: ``solve(k)`` for any ``k`` at or
    below the swept cap is a table read plus reconstruction. Callers
    that know the budgets they will read size the sweep up front with
    :meth:`reserve` (RID's greedy scan gets its cap from
    :meth:`penalized_count`); otherwise the cap grows geometrically on
    demand, so incremental k searches (``solve(1)``, ``solve(2)``, …)
    cost amortised one sweep at the final cap.

    Score rows live only while their parent is being filled (each node
    has one parent, so children drop immediately); decision rows are
    kept compactly (``array('h')``/``array('l')``) for reconstruction.

    Attributes:
        memo_states: table entries filled by the last sweep — the
            compiled analogue of a dict-memo solver's memo size,
            exported as the ``rid.tree_dp.memo_states`` gauge. With the
            sweep sized once up front this is the exact state count of
            the tree's one sweep (under geometric growth it counted only
            the last of several).
        sweeps: k-indexed sweeps run so far (exported as the
            ``rid.tree_dp.sweeps`` counter); 1 per tree unless the
            geometric fallback fired.
    """

    def __init__(self, tree, backend: Optional[str] = None) -> None:
        self._tree = tree
        self._cap = -1
        self._dec: List[Optional[List[array]]] = []
        self._root_scores: List[float] = []
        self.memo_states = 0
        self.sweeps = 0
        self._engine = _backends.resolve_backend(backend)
        #: resolved backend executing the sweeps (``python`` / ``numpy``).
        self.backend_name = self._engine.name

    @property
    def tree(self) -> CompiledBinaryTree:
        """The compiled tree the sweeps read (compiled on first access)."""
        if not isinstance(self._tree, CompiledBinaryTree):
            self._tree = compile_binary_tree(self._tree)
        return self._tree

    # ------------------------------------------------------------------

    def reserve(self, k: int) -> None:
        """Fill the tables for every budget up to ``k`` in one sweep now.

        A no-op when the swept cap already covers ``k``; ``k`` is clamped
        to the tree's real-node count.
        """
        if k > self._cap:
            self._sweep(min(k, self.tree.num_real))

    def _ensure(self, k: int) -> None:
        """Sweep up to budget ``k`` (geometric growth keeps re-sweeps amortised)."""
        if k <= self._cap:
            return
        target = self._cap * 2
        if target < k:
            target = k
        if target > self.tree.num_real:
            target = self.tree.num_real
        self._sweep(target)

    def _sweep(self, cap: int) -> None:
        """Fill the DP tables up to budget ``cap`` via the selected backend.

        Both backends produce bit-identical scores and decisions (the DP
        draws no randomness and the vectorized sweep preserves every
        float expression's evaluation order), so sweeps are
        interchangeable mid-search.
        """
        self.sweeps += 1
        if self._engine.name == "python":
            self._sweep_python(cap)
        else:
            self._engine.tree_sweep(self, cap)

    def _sweep_python(self, cap: int) -> None:
        """Fill every per-node ``[budget][ancestor-depth]`` table for budgets ``0..cap``.

        The anc axis maps slot 0 to "no initiator ancestor" and slot
        ``a >= 1`` to the ancestor at depth ``a - 1``; a node at depth d
        therefore owns ``d + 1`` slots, and its children read slot
        ``d + 1`` ("nearest initiator is this node") from their own rows.
        """
        ct = self.tree
        n = ct.size
        left, right, depth = ct.left, ct.right, ct.depth
        real_size, is_dummy, gpath = ct.real_size, ct.is_dummy, ct.gpath
        neg_inf = _NEG_INF
        typecode = _decision_typecode(cap)
        scores: List[Optional[List[List[float]]]] = [None] * n
        dec: List[Optional[List[array]]] = [None] * n
        states = 0

        for u in range(n):
            l, r = left[u], right[u]
            w = depth[u] + 1
            lcap = real_size[l] if l >= 0 else 0
            rcap = real_size[r] if r >= 0 else 0
            kcap = real_size[u]
            if kcap > cap:
                kcap = cap
            Sl = scores[l] if l >= 0 else None
            Sr = scores[r] if r >= 0 else None
            real = not is_dummy[u]
            if real:
                own_row = [0.0]
                own_row.extend(gpath[u][: w - 1])  # strict-ancestor products
            else:
                own_row = [0.0] * w  # dummies never contribute
            S_u: List[List[float]] = []
            D_u: List[array] = []

            for k in range(kcap + 1):
                # Case 1: u is not an initiator; split k over the children
                # (ascending m, strict improvement — the recursion's order).
                lo = k - rcap
                if lo < 0:
                    lo = 0
                hi = k if k < lcap else lcap
                S_k: Optional[List[float]] = None
                D_k: Optional[List[int]] = None
                for m in range(lo, hi + 1):
                    if S_k is None:
                        if Sl is not None:
                            Lrow = Sl[m]
                            if Sr is not None:
                                Rrow = Sr[k - m]
                                S_k = [
                                    o + a + b
                                    for o, a, b in zip(own_row, Lrow, Rrow)
                                ]
                            else:
                                S_k = [o + a + 0.0 for o, a in zip(own_row, Lrow)]
                        elif Sr is not None:
                            Rrow = Sr[k - m]
                            S_k = [o + 0.0 + b for o, b in zip(own_row, Rrow)]
                        else:
                            S_k = [o + 0.0 + 0.0 for o in own_row]
                        D_k = [m + m] * w
                    else:
                        # A multi-way split range implies both children
                        # exist (each child bounds one end of the range).
                        Lrow = Sl[m]
                        Rrow = Sr[k - m]
                        mm = m + m
                        for a in range(w):
                            sc = own_row[a] + Lrow[a] + Rrow[a]
                            if sc > S_k[a]:
                                S_k[a] = sc
                                D_k[a] = mm

                # Cases 2-3: u is an initiator (real slots only). The
                # children's nearest initiator ancestor is u itself, so
                # the value is independent of this row's anc slot:
                # evaluate once, broadcast with the strict comparison.
                if k >= 1 and real:
                    rem = k - 1
                    lo2 = rem - rcap
                    if lo2 < 0:
                        lo2 = 0
                    hi2 = rem if rem < lcap else lcap
                    ca = w  # child anc slot for "initiator at depth[u]"
                    best2 = neg_inf
                    m2 = 0
                    for m in range(lo2, hi2 + 1):
                        ls = Sl[m][ca] if Sl is not None else 0.0
                        rs = Sr[rem - m][ca] if Sr is not None else 0.0
                        sc = 1.0 + ls + rs
                        if sc > best2:
                            best2 = sc
                            m2 = m
                    d2 = (m2 + m2) | 1
                    if S_k is None:  # k exceeds the children's capacity
                        S_k = [best2] * w
                        D_k = [d2] * w
                    else:
                        D_k = [
                            d2 if best2 > v else dv for v, dv in zip(S_k, D_k)
                        ]
                        S_k = [best2 if best2 > v else v for v in S_k]

                S_u.append(S_k)
                if k >= 1:
                    D_u.append(array(typecode, D_k))

            scores[u] = S_u
            dec[u] = D_u
            states += (kcap + 1) * w
            # Each slot has exactly one parent: child score rows are dead
            # the moment the parent's rows are filled.
            if l >= 0:
                scores[l] = None
            if r >= 0:
                scores[r] = None

        root = ct.root_pos
        kroot = min(cap, ct.num_real)
        self._root_scores = [scores[root][k][0] for k in range(kroot + 1)]
        self._dec = dec
        self._cap = cap
        self.memo_states = states

    def penalized_count(self, beta: float) -> int:
        """Initiator count of the β-penalised optimum: the greedy scan's cap hint.

        One post-order sweep with no budget axis over the same
        ``[node][ancestor-depth]`` states as :meth:`_sweep_python`. Each
        state holds the best ``(objective − β·count, count)`` over
        initiator sets of the subtree, ties broken to the smaller count;
        a node's row combines its children's rows with the budgeted
        sweep's recurrence (``own + left + right`` when the node is not
        an initiator, ``1 + left[w] + right[w]`` when it is). A second,
        slot-0-only state per node keeps the best set with *at least
        one* initiator, so the answer is the count at the root's
        constrained optimum — the first maximiser of
        ``OPT(k) − (k−1)β`` over ``k ≥ 1`` in exact arithmetic (0 for an
        empty tree). Float sums here are not the budgeted sweep's, so
        the count is a sizing hint only, never a result.

        O(slots · depth) time; rows live only until the parent reads
        them.
        """
        ct = self.tree
        n = ct.size
        if ct.num_real == 0:
            return 0
        left, right, depth = ct.left, ct.right, ct.depth
        is_dummy, gpath = ct.is_dummy, ct.gpath
        bonus = 1.0 - beta
        # A missing child contributes (0.0, 0) at every anc slot; zip()
        # truncates these shared rows to the reading row's width.
        width = max(depth) + 2
        zero_v = [0.0] * width
        zero_c = [0] * width
        vals: List[Optional[List[float]]] = [None] * n
        counts: List[Optional[List[int]]] = [None] * n
        # Best (value, count) with count >= 1 and no initiator ancestor.
        some: List[Optional[tuple]] = [None] * n

        for u in range(n):
            l, r = left[u], right[u]
            w = depth[u] + 1
            if l >= 0:
                Vl, Cl, Pl = vals[l], counts[l], some[l]
                vals[l] = counts[l] = some[l] = None
            else:
                Vl, Cl, Pl = zero_v, zero_c, None
            if r >= 0:
                Vr, Cr, Pr = vals[r], counts[r], some[r]
                vals[r] = counts[r] = some[r] = None
            else:
                Vr, Cr, Pr = zero_v, zero_c, None
            if is_dummy[u]:
                own = zero_v[:w]
            else:
                own = [0.0]
                own.extend(gpath[u][: w - 1])  # strict-ancestor products
            # u is not an initiator: children keep u's anc slot.
            V = [o + a + b for o, a, b in zip(own, Vl, Vr)]
            C = [a + b for _, a, b in zip(own, Cl, Cr)]
            # Slot 0 with count >= 1: one child holds an initiator.
            P = None
            if Pl is not None:
                P = (Pl[0] + Vr[0], Pl[1] + Cr[0])
            if Pr is not None:
                cand = (Vl[0] + Pr[0], Cl[0] + Pr[1])
                if P is None or cand[0] > P[0] or (cand[0] == P[0] and cand[1] < P[1]):
                    P = cand
            if not is_dummy[u]:
                # u is an initiator: the children's anc slot is u itself.
                iv = bonus + Vl[w] + Vr[w]
                ic = 1 + Cl[w] + Cr[w]
                for a in range(w):
                    v = V[a]
                    if iv > v or (iv == v and ic < C[a]):
                        V[a] = iv
                        C[a] = ic
                if P is None or iv > P[0] or (iv == P[0] and ic < P[1]):
                    P = (iv, ic)
            vals[u], counts[u], some[u] = V, C, P

        return some[ct.root_pos][1]

    # ------------------------------------------------------------------

    def solve(self, k: int) -> "TreeDPResult":
        """Optimal placement of exactly ``k`` initiators (iterative).

        Raises:
            DynamicProgramError: when ``k`` is out of ``[0, num_real]``.
        """
        from repro.core.tree_dp import TreeDPResult

        num_real = self.tree.num_real
        if k < 0 or k > num_real:
            raise DynamicProgramError(f"k must be in [0, {num_real}], got {k}")
        if self.tree.size == 0:
            return TreeDPResult(k=0, score=0.0, initiators={})
        self._ensure(k)
        return TreeDPResult(
            k=k, score=self._root_scores[k], initiators=self._reconstruct(k)
        )

    def solve_curve(self, k_max: int) -> List["TreeDPResult"]:
        """The full incremental curve ``[solve(1), …, solve(k_max)]`` in one sweep."""
        num_real = self.tree.num_real
        if k_max < 0 or k_max > num_real:
            raise DynamicProgramError(f"k must be in [0, {num_real}], got {k_max}")
        if k_max >= 1:
            self._ensure(k_max)
        return [self.solve(k) for k in range(1, k_max + 1)]

    def _reconstruct(self, k: int) -> Dict[Node, NodeState]:
        """Walk the decision tables to recover the chosen initiators.

        Mirrors the recursive oracle's reconstruction stack order; subtrees with
        zero remaining budget are pruned outright (every decision there
        is trivially "no initiator, empty split").
        """
        ct = self.tree
        left, right, depth = ct.left, ct.right, ct.depth
        originals, states = ct.originals, ct.states
        dec = self._dec
        chosen: Dict[Node, NodeState] = {}
        stack = [(ct.root_pos, k, 0)]
        while stack:
            u, budget, a = stack.pop()
            if u < 0 or budget == 0:
                continue
            d = dec[u][budget - 1][a]
            m = d >> 1
            if d & 1:
                chosen[originals[u]] = states[u]
                ca = depth[u] + 1
                stack.append((left[u], m, ca))
                stack.append((right[u], budget - 1 - m, ca))
            else:
                stack.append((left[u], m, a))
                stack.append((right[u], budget - m, a))
        return chosen


# Bottom import, matching repro.kernel.cascade (no cycle: the backends
# package never imports kernel modules at import time).
from repro.kernel import backends as _backends  # noqa: E402
