"""The ``OPT(u, I, S, k)`` dynamic program for k-ISOMIT-BT (Sec. III-D).

Given a binarised cascade tree and a budget of ``k`` initiators, find the
placement (identities + initial states) maximising the paper's additive
objective — the sum over tree nodes of ``P(u, s(u) | I, S)``:

* a node chosen as initiator whose hypothesised state matches its
  observed snapshot state contributes 1 (the paper's single-node special
  case); a mismatched hypothesis contributes 0 and is never optimal, so
  the inferred initial state of a selected initiator is its observed
  state;
* any other node contributes the ``g``-product along the path from its
  nearest initiator ancestor (0 when it has none) — on a directed tree
  only ancestors can reach a node, and the nearest ancestor's path
  product dominates the noisy-or combination, so the DP collapses the
  paper's ``(I, S)`` argument to *nearest initiator ancestor*, which is
  what keeps the program polynomial (the paper asserts polynomiality but
  omits the construction "due to the limited space"; this collapse is
  the standard one, cf. Lappas et al.'s effectors DP).

Reproduction note: the paper's recursion takes ``min`` over the child
budget split ``m`` inside an outer ``max``; since ``OPT`` is maximised by
the final objective ``argmin −OPT + (k−1)β``, the inner ``min`` is read
as a typo for ``max`` (a genuine min over splits would just pick the
worst split of an otherwise maximised quantity).

Dummy nodes from the binarisation are transparent: they contribute
nothing to the objective, cannot be initiators, and their incoming edge
has ``g = 1``.

The program runs on the compiled flat-array kernel of
:mod:`repro.kernel.tree_dp` — an iterative post-order sweep with no
recursion and no dict memo, safe on deep (path-like) cascade trees.
:class:`KIsomitBTSolver` is that kernel under the name the RID pipeline
looks up (``repro.core.rid.KIsomitBTSolver``, the seam tests
monkeypatch to stub the DP). The recursive dict-memo reading of the
recursion, and an exhaustive brute-force solver certifying its
optimality, are kept as test oracles (``tests/oracles/tree_dp_memo.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.binarize import BinaryCascadeTree
from repro.kernel.tree_dp import TreeDPKernel
from repro.types import Node, NodeState


@dataclass
class TreeDPResult:
    """Outcome of one k-ISOMIT-BT solve.

    Attributes:
        k: the initiator budget that was solved for.
        score: optimal objective value ``OPT`` (sum of per-node
            explanation probabilities).
        initiators: inferred initiator identities mapped to their
            inferred initial states (observed snapshot states).
    """

    k: int
    score: float
    initiators: Dict[Node, NodeState]


#: The per-tree DP solver: ``KIsomitBTSolver(tree, backend=None)``, with
#: ``solve(k)``, ``solve_curve(k_max)`` and the sweep-sizing
#: ``penalized_count(beta)`` / ``reserve(k)``.
KIsomitBTSolver = TreeDPKernel


def solve_k_isomit_bt(tree: BinaryCascadeTree, k: int) -> TreeDPResult:
    """One-shot convenience wrapper around :class:`KIsomitBTSolver`."""
    return KIsomitBTSolver(tree).solve(k)
