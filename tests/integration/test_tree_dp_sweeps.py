"""One k-indexed TreeDP sweep per cascade tree on the golden workload.

RID's greedy k scan sizes the kernel's sweep from the β-penalised count
before it reads any budget, the exhaustive scan sweeps once at its cap,
and budget mode sweeps each tree's curve once — so the
``rid.tree_dp.sweeps`` counter equals the tree count.
"""

import pytest

from repro.core.rid import RID, RIDConfig
from repro.experiments.config import WorkloadConfig
from repro.experiments.workload import build_workload
from repro.obs import MetricsRecorder
from repro.pipeline.stages import TreeDPStage


@pytest.fixture(scope="module")
def golden_infected():
    workload = build_workload(
        WorkloadConfig(dataset="epinions", scale=0.003, seed=123)
    )
    return workload.infected


@pytest.mark.parametrize(
    "config",
    [
        RIDConfig(),
        RIDConfig(beta=0.5),
        RIDConfig(beta=0.8),
        RIDConfig(beta=0.8, k_strategy="exhaustive"),
        RIDConfig(beta=0.1, max_k_per_tree=4),
    ],
    ids=["default", "beta0.5", "beta0.8", "exhaustive", "max_k"],
)
def test_greedy_scan_sweeps_each_tree_once(golden_infected, config):
    recorder = MetricsRecorder()
    RID(config).detect(golden_infected, recorder=recorder)
    counters = recorder.metrics.counters
    assert counters["rid.trees"] > 0
    assert counters["rid.tree_dp.sweeps"] == counters["rid.trees"]


def test_budget_curves_sweep_each_tree_once(golden_infected):
    recorder = MetricsRecorder()
    trees = len(RID().detect(golden_infected).trees)
    RID().detect_with_budget(golden_infected, budget=trees + 3, recorder=recorder)
    counters = recorder.metrics.counters
    assert counters["rid.tree_dp.sweeps"] == counters["rid.trees"] == trees


def test_tree_dp_key_ignores_backend():
    # Both TreeDP sweeps are bit-identical, so one artifact serves both.
    for mode in ("greedy", "curve"):
        stage = TreeDPStage(mode)
        assert stage.config_digest(RIDConfig(backend="python")) == stage.config_digest(
            RIDConfig(backend="numpy")
        )
