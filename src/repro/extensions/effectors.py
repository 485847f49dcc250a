"""The k-Effectors baseline (Lappas, Terzi, Gunopulos, Mannila — KDD 2010).

The unsigned ancestor of the ISOMIT problem (Table I): given an
activation snapshot under the IC model, find the ``k`` *effectors* whose
cascade best explains it, scoring a candidate set ``I`` by the cost

    C(I) = Σ_{v}  | a(v) − P(v active | I) |

where ``a(v)`` is 1 for observed-active nodes and 0 otherwise, and the
activation probabilities come from Monte-Carlo simulation of the
(unsigned) IC dynamics. We implement the standard greedy minimiser over
candidate effectors, evaluated on the infected subgraph plus its
immediate frontier so that over-spreading is penalised too.

This detector ignores signs entirely — it is the "what if we used the
unsigned state of the art" comparison point for RID.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.detectors.base import (
    DetectionResult,
    Detector,
    reject_removed_budget_spelling,
)
from repro.core.components import infected_components
from repro.diffusion.ic import ICModel
from repro.errors import InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.types import Node, NodeState
from repro.utils.rng import derive_seed


class KEffectorsDetector(Detector):
    """Greedy k-effectors over each infected component.

    Args:
        budget: effectors budget per connected component (the unified
            keyword; the historical ``k_per_component`` spelling was
            removed and raises :class:`~repro.errors.ConfigError`).
        trials: Monte-Carlo samples per candidate evaluation.
        candidate_limit: evaluate at most this many candidates per
            component (highest out-degree first) to bound the cubic
            cost; None = all infected nodes.
        seed: base seed for the Monte-Carlo streams.
        runtime: optional :class:`~repro.runtime.config.RuntimeConfig`
            forwarded to the batched Monte-Carlo facade — candidate
            evaluations fan their trials over the process pool when
            ``workers > 1``.
    """

    name = "k-effectors"

    def __init__(
        self,
        budget: int = 1,
        trials: int = 10,
        candidate_limit: Optional[int] = 30,
        seed: int = 0,
        k_per_component: Optional[int] = None,
        runtime=None,
    ) -> None:
        reject_removed_budget_spelling(
            "KEffectorsDetector", "k_per_component", k_per_component
        )
        if budget < 1:
            raise InvalidModelParameterError(
                f"budget must be >= 1, got {budget}"
            )
        if trials < 1:
            raise InvalidModelParameterError(f"trials must be >= 1, got {trials}")
        self.budget = budget
        self.trials = trials
        self.candidate_limit = candidate_limit
        self.seed = seed
        self.runtime = runtime
        self._ic = ICModel(propagate_signs=False)

    # ------------------------------------------------------------------

    def activation_probabilities(
        self, component: SignedDiGraph, effectors: Set[Node], stream: int
    ) -> Dict[Node, float]:
        """Monte-Carlo estimate of P(v active | effectors) under IC.

        All trials run through one
        :func:`~repro.diffusion.monte_carlo.simulate_batch` call, so the
        estimate inherits the batched kernel path, worker fan-out and
        caching semantics of the shared facade.
        """
        from repro.diffusion.monte_carlo import simulate_batch

        seeds = {node: NodeState.POSITIVE for node in effectors}
        summary = simulate_batch(
            self._ic,
            component,
            seeds,
            self.trials,
            base_seed=derive_seed(self.seed, "effectors", stream),
            runtime=self.runtime,
            record_states=True,
        )
        counts = summary.active_counts()
        return {
            node: counts.get(node, 0) / self.trials for node in component.nodes()
        }

    def cost(
        self, component: SignedDiGraph, effectors: Set[Node], stream: int
    ) -> float:
        """The Lappas et al. explanation cost of an effector set.

        All component nodes are observed active (they come from the
        infected snapshot), so the cost reduces to the expected number
        of unexplained activations ``Σ_v (1 − P(v active))``.
        """
        probabilities = self.activation_probabilities(component, effectors, stream)
        return sum(1.0 - p for p in probabilities.values())

    def _candidates(self, component: SignedDiGraph) -> List[Node]:
        nodes = sorted(component.nodes(), key=repr)
        nodes.sort(key=component.out_degree, reverse=True)
        if self.candidate_limit is not None:
            nodes = nodes[: self.candidate_limit]
        return nodes

    def detect(
        self, infected: SignedDiGraph, recorder: Optional[Recorder] = None
    ) -> DetectionResult:
        rec = resolve_recorder(recorder)
        with rec.span("detect", method=self.name):
            return self._detect(infected)

    def _detect(self, infected: SignedDiGraph) -> DetectionResult:
        initiators: Set[Node] = set()
        for index, component in enumerate(infected_components(infected)):
            if component.number_of_nodes() == 1:
                initiators.update(component.nodes())
                continue
            chosen: Set[Node] = set()
            candidates = self._candidates(component)
            budget = min(self.budget, len(candidates))
            for step in range(budget):
                best_candidate = None
                best_cost = float("inf")
                for candidate in candidates:
                    if candidate in chosen:
                        continue
                    trial_cost = self.cost(
                        component, chosen | {candidate}, stream=index * 1000 + step
                    )
                    if trial_cost < best_cost:
                        best_cost, best_candidate = trial_cost, candidate
                if best_candidate is None:
                    break
                chosen.add(best_candidate)
            initiators.update(chosen)
        return DetectionResult(method=self.name, initiators=initiators)
