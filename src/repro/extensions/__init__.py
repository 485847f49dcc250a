"""Classic single-source detectors from the related work (Sec. V).

These unsigned source-detection methods — rumor centrality (Shah &
Zaman), the Jordan center, and distance centrality — predate the paper
and are implemented as additional comparison points. They pick the top
candidates of a centrality score over the infected subgraph and, being
sign-blind, serve as extra baselines in the ablation benches.
"""

from repro.detectors.centrality import (
    CentralityDetector,
    DistanceCenterDetector,
    JordanCenterDetector,
    RumorCentralityDetector,
)
from repro.extensions.certainty_cover import CertaintyCoverDetector
from repro.extensions.effectors import KEffectorsDetector
from repro.extensions.rumor_centrality import rumor_centralities, rumor_centrality
from repro.extensions.simulation_matching import SimulationMatchingDetector

__all__ = [
    "CentralityDetector",
    "RumorCentralityDetector",
    "JordanCenterDetector",
    "DistanceCenterDetector",
    "KEffectorsDetector",
    "SimulationMatchingDetector",
    "CertaintyCoverDetector",
    "rumor_centrality",
    "rumor_centralities",
]
