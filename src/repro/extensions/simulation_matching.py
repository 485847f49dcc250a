"""Simulation-matching detector: score candidates by forward simulation.

A model-based alternative to RID's likelihood machinery: for each
candidate initiator set, run the MFC model forward several times and
score how well the simulated infections reproduce the observed snapshot
(Jaccard similarity of infected sets plus state agreement). Candidates
are grown greedily from the best-matching single sources.

Exponentially more expensive than RID but makes no tree or
nearest-ancestor approximations — useful as a sanity-check detector on
small snapshots and as a reference point in ablations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.detectors.base import (
    DetectionResult,
    Detector,
    reject_removed_budget_spelling,
)
from repro.core.components import infected_components
from repro.diffusion.mfc import MFCModel
from repro.errors import InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.types import Node, NodeState
from repro.utils.rng import derive_seed


class SimulationMatchingDetector(Detector):
    """Greedy forward-simulation matcher under MFC.

    Args:
        alpha: MFC boosting coefficient for the forward simulations.
        trials: Monte-Carlo samples per candidate evaluation.
        budget: growth budget per component (the unified keyword; the
            historical ``max_initiators_per_component`` spelling was
            removed and raises :class:`~repro.errors.ConfigError`).
        candidate_limit: shortlist size per component (by out-degree).
        improvement_threshold: minimum match-score gain to accept one
            more initiator (the stopping rule).
        seed: RNG stream root.
        runtime: optional :class:`~repro.runtime.config.RuntimeConfig`
            forwarded to the batched Monte-Carlo facade — candidate
            evaluations fan their trials over the process pool when
            ``workers > 1``.
    """

    name = "simulation-matching"

    def __init__(
        self,
        alpha: float = 3.0,
        trials: int = 8,
        budget: int = 3,
        candidate_limit: Optional[int] = 20,
        improvement_threshold: float = 0.01,
        seed: int = 0,
        max_initiators_per_component: Optional[int] = None,
        runtime=None,
    ) -> None:
        reject_removed_budget_spelling(
            "SimulationMatchingDetector",
            "max_initiators_per_component",
            max_initiators_per_component,
        )
        if trials < 1:
            raise InvalidModelParameterError(f"trials must be >= 1, got {trials}")
        if budget < 1:
            raise InvalidModelParameterError("budget must be >= 1")
        self.model = MFCModel(alpha=alpha)
        self.trials = trials
        self.budget = budget
        self.candidate_limit = candidate_limit
        self.improvement_threshold = improvement_threshold
        self.seed = seed
        self.runtime = runtime

    # ------------------------------------------------------------------

    def match_score(
        self, component: SignedDiGraph, initiators: Dict[Node, NodeState], stream: int
    ) -> float:
        """Mean similarity between simulated cascades and the snapshot.

        Similarity of one cascade = Jaccard overlap of the infected sets,
        weighted by the state-agreement rate on the overlap. All trials
        run through one :func:`~repro.diffusion.monte_carlo
        .simulate_batch` call: simulations run on the component itself,
        so each simulated infected set is a subset of the observed one —
        Jaccard reduces to ``|simulated| / |observed|`` and the agreement
        rate to a per-trial state-match count over the final-state
        matrix.
        """
        from repro.diffusion.monte_carlo import simulate_batch

        observed = {node: component.state(node) for node in component.nodes()}
        summary = simulate_batch(
            self.model,
            component,
            initiators,
            self.trials,
            base_seed=derive_seed(self.seed, "simmatch", stream),
            runtime=self.runtime,
            record_states=True,
        )
        matches = summary.match_totals(observed)
        total = 0.0
        for simulated, matched in zip(summary.infected, matches):
            if not simulated:
                continue
            jaccard = simulated / len(observed)
            agreement = matched / simulated
            total += jaccard * agreement
        return total / self.trials

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
        initiators: Dict[Node, NodeState] = {}
        for index, component in enumerate(infected_components(infected)):
            if component.number_of_nodes() == 1:
                (node,) = component.nodes()
                initiators[node] = component.state(node)
                continue
            chosen: Dict[Node, NodeState] = {}
            best_score = float("-inf")
            candidates = self._candidates(component)
            for step in range(min(self.budget, len(candidates))):
                best_candidate: Optional[Node] = None
                best_candidate_score = best_score
                for candidate in candidates:
                    if candidate in chosen:
                        continue
                    hypothesis = dict(chosen)
                    hypothesis[candidate] = component.state(candidate)
                    score = self.match_score(
                        component, hypothesis, stream=index * 100 + step
                    )
                    if score > best_candidate_score:
                        best_candidate_score, best_candidate = score, candidate
                if best_candidate is None:
                    break
                gain = best_candidate_score - (best_score if chosen else 0.0)
                if chosen and gain < self.improvement_threshold:
                    break
                chosen[best_candidate] = component.state(best_candidate)
                best_score = best_candidate_score
            initiators.update(chosen)
        return DetectionResult(
            method=self.name, initiators=set(initiators), states=initiators
        )
