"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

The tiny mode of every workload runs end to end in a subprocess, as the
benchmark is run; the tracer is tested in-process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
from repro.core.rid import RID, RIDConfig  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, seed: int = 3, trace: int = 0, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=300, env=env)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs_line(proc: subprocess.CompletedProcess) -> str:
    return next(line for line in proc.stdout.splitlines() if line.startswith("# inputs "))


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit_and_no_errors(workload, trace):
    proc = bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = result_line(proc)
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())
    table = proc.stdout.splitlines()
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in table), name
    # error_rate = failed / attempted = 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["detect-epinions", "stream-churn"])
def test_same_seed_gives_the_same_input_digests(workload):
    first, again, other = bench(workload, seed=5), bench(workload, seed=5), bench(workload, seed=6)
    assert inputs_line(first) == inputs_line(again)
    assert inputs_line(first) != inputs_line(other)  # the seed orders / draws the inputs


def test_kernel_backend_override_is_cleared_and_recorded():
    proc = bench("budget-slashdot", env=dict(os.environ, REPRO_KERNEL_BACKEND="numpy"))
    env_line = next(line for line in proc.stdout.splitlines() if line.startswith("# env "))
    recorded = json.loads(env_line[len("# env "):])
    assert recorded["backend"] == "python"
    assert {"nproc", "python", "numpy", "src_digest", "loadavg", "seed"} <= set(recorded)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("detect-epinions", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _targets():
    return spans.LIBRARY_TARGETS + spans.SERVE_TARGETS + ((*spans.CACHE_LOOKUP, ""),)


def _snapshot():
    return workloads.build_snapshots("slashdot", 1, 0.002)[0]


def test_wrappers_return_results_unchanged_and_are_removed():
    snapshot = _snapshot()
    before = {(m, a): spans._resolve(m, a) for m, a, _ in _targets()}
    originals = {key: vars(owner).get(name) for key, (owner, name) in before.items()}
    plain = repro.detect(snapshot.infected.copy()).to_json()
    budgeted = RID(RIDConfig()).detect_with_budget(snapshot.infected.copy(), 40).to_json()

    tracer = spans.Tracer().install(spans.LIBRARY_TARGETS + spans.SERVE_TARGETS)
    try:
        for key, (owner, name) in before.items():
            assert vars(owner).get(name) is not originals[key], key
        traced = repro.detect(snapshot.infected.copy()).to_json()
        traced_budget = RID(RIDConfig()).detect_with_budget(snapshot.infected.copy(), 40).to_json()
    finally:
        tracer.remove()

    assert traced == plain and traced_budget == budgeted
    names = {span[0] for span in tracer.spans}
    assert {"detect", "core.prune", "core.arborescence", "kernel.tree_dp",
            "pipeline.digest", "pipeline.knapsack"} <= names
    assert tracer.cache_misses > 0
    for key, (owner, name) in before.items():
        assert vars(owner).get(name) is originals[key], key


def test_self_time_subtracts_direct_children_only():
    spans_ = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
    ]
    assert spans.self_times(spans_) == {"root": 6.0, "child": 3.0, "grandchild": 1.0}
    assert spans.self_times(spans_, lambda s: s[0] != "root") == {"child": 3.0, "grandchild": 1.0}


def test_rescaler_scales_each_interval_by_the_probes_around_it():
    rescaler = hostspeed.Rescaler()
    factors = [rescaler.factor() for _ in range(3)]
    probes = rescaler.probes
    assert len(probes) == 4 and all(p > 0 for p in probes)
    for k, factor in enumerate(factors):
        assert factor == pytest.approx(hostspeed.REFERENCE_S / ((probes[k] + probes[k + 1]) / 2))


def test_sampler_rescales_an_interval_by_the_samples_around_it_without_their_time():
    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    (scaled,), (plain,) = sampler.timings([(start, end)])
    inside = [d for s, d in sampler.samples if start <= s and s + d <= end]
    assert len(inside) >= 3
    assert plain <= end - start - sum(inside) + 1e-9
    middle = (start + end) / 2
    window = [d for s, d in sampler.samples
              if abs(s - middle) <= hostspeed.SAMPLE_WINDOW_S / 2]
    assert scaled == pytest.approx(plain * hostspeed.SAMPLE_REFERENCE_S / (sum(window) / len(window)))


def test_timing_metrics_print_their_plain_wall_time_beside_the_rescaled_one():
    proc = bench("budget-slashdot")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    host = json.loads(next(line for line in proc.stdout.splitlines()
                           if line.startswith("# host "))[len("# host "):])
    assert host["probes"] > 0 and host["speed_median"] > 0
    rows = {line.split()[0]: line for line in proc.stdout.splitlines() if line.startswith("  ")}
    for name in ("setup_s", "detect_s_mean", "latency_p50_ms", "latency_p90_ms", "throughput_rps"):
        assert " wall=" in rows[name], name
    for name in ("peak_rss_mb", "f1"):
        assert " wall=" not in rows[name], name
