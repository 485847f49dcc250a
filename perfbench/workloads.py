"""The benchmark's four workloads, run against the public API.

Every workload builds its inputs, measures for a wall-clock window,
then checks every output outside the window:

* ``detect-epinions`` — default β-mode :func:`repro.detect` over a fixed
  cycle of Epinions-like snapshots (one giant component: Edmonds plus
  the DP's greedy k-scan dominate);
* ``budget-slashdot`` — ``repro.detect(..., budget=<planted count>)``
  over Slashdot-like snapshots (per-tree OPT curves plus the knapsack);
* ``serve-warm`` — a closed loop of two client connections sending
  ``/v1/detect`` to the serve CLI in its own process, every snapshot
  primed, so the work is the HTTP edge, the wire codec and cache hits;
* ``stream-churn`` — :meth:`StreamingDetectionEngine.step` over deltas
  that recover and re-infect nodes, rotating over the components.

The snapshot pools are the paper's setup (Sec. IV-B3) with the
network fixed, as the paper's datasets are: ``WorkloadConfig``'s default
network seed and trials ``0..n-1``. The benchmark ``--seed`` orders the
detect cycle, shuffles each serve connection's cycles and draws the
stream's churn. Detection cost and F1 differ several-fold between trials of the
same network, so letting the seed pick the trials would make every
metric's spread a property of the draw rather than of the code.

Every reported time is a wall time rescaled to a fixed host speed (see
``hostspeed.py``): by a calibration loop sampled from a background
thread while in-process work runs, and by calibration probes on both
CPUs around serve-warm's server phases. The plain wall time is printed
beside it.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.core.rid import RID, RIDConfig
from repro.experiments import workload as workload_module
from repro.experiments.config import WorkloadConfig
from repro.graphs.signed_digraph import SignedDiGraph
from repro.detectors.base import DetectionResult
from repro.obs.metrics import Metrics, MetricsRecorder
from repro.pipeline.cache import encode_graph
from repro.runtime.cache import graph_digest, stable_digest
from repro.serve import wire
from repro.serve.client import ServeClient
from repro.stream import SnapshotDelta, StreamingDetectionEngine
from repro.types import Node, NodeState

from hostspeed import Rescaler, Sampler
from spans import LIBRARY_TARGETS, Span, Tracer, self_times

HERE = Path(__file__).resolve().parent

#: End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "detect_s_mean": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "req/s",
}

#: Per-layer metrics of the traced run: name -> unit. Times and counts
#: are per operation (detect call, request or delta) unless the name
#: says otherwise; the setup layers are per input build. A layer the
#: workload never calls reads 0.
PER_LAYER: Dict[str, str] = {
    "graphs.generate_s": "s",
    "graphs.reverse_s": "s",
    "weights.jaccard_s": "s",
    "diffusion.plant_s": "s",
    "diffusion.mfc_s": "s",
    "diffusion.infected": "count",
    "core.prune_s": "s",
    "core.components_s": "s",
    "core.arborescence_s": "s",
    "core.binarize_s": "s",
    "core.components": "count",
    "core.trees": "count",
    "core.pruned_links": "count",
    "kernel.tree_dp_s": "s",
    "kernel.tree_dp.k_iterations": "count",
    "kernel.tree_dp.states_max": "count",
    "kernel.tree_dp.useful_k_ratio": "ratio",
    "pipeline.self_s": "s",
    "pipeline.digest_s": "s",
    "pipeline.knapsack_s": "s",
    "pipeline.cache_hit_ratio": "ratio",
    "pipeline.stage_coverage": "ratio",
    "detectors.detected": "count",
    "detectors.precision": "ratio",
    "detectors.recall": "ratio",
    "serve.http_ms": "ms",
    "serve.handler_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.client_ms": "ms",
    "serve.request_kb": "KB",
    "serve.response_kb": "KB",
    "serve.graph_cache_hit_ratio": "ratio",
    "serve.engine_cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.batch_size_mean": "count",
    "serve.shed": "count",
    "serve.errors": "count",
    "serve.wire.parse_ms": "ms",
    "serve.wire.digest_ms": "ms",
    "serve.wire.graph_decode_ms": "ms",
    "serve.wire.result_encode_ms": "ms",
    "stream.apply_ms": "ms",
    "stream.detect_ms": "ms",
    "stream.dirty_components": "count",
    "stream.reused_artifacts": "count",
    "stream.computed_artifacts": "count",
    "stream.reuse_ratio": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Size:
    """Input sizes: ``FULL`` is the benchmark, ``TINY`` its self-test."""

    scale: float
    epinions_snapshots: int
    slashdot_snapshots: int
    setup_reps: int
    min_samples: int
    #: stream-churn: cold detects before the churn window, and again after
    cold_detects: int


FULL = Size(scale=0.01, epinions_snapshots=4, slashdot_snapshots=8, setup_reps=5,
            min_samples=100, cold_detects=3)
TINY = Size(scale=0.002, epinions_snapshots=2, slashdot_snapshots=2, setup_reps=2,
            min_samples=8, cold_detects=2)

#: Serve-warm closed-loop client connections.
CONNECTIONS = 2
#: Serve-warm: snapshot cycles drawn per connection (the loop wraps
#: around after them; a 10 s run uses about 10).
SERVE_CYCLES = 64
#: Stream-churn: share of the infected nodes one delta recovers, and
#: how often the giant component takes the delta (every 5th). At 1 in
#: 5 the p50 falls among the small-component deltas (apply plus cache
#: hits) and the p90 at the median of the giant's recomputes, each well
#: inside its own mode rather than on the boundary between them.
CHURN_FRACTION = 0.01
GIANT_EVERY = 5
#: Serve-warm measures in chunks of about this many seconds, with a
#: host-speed probe between chunks. A chunk ends when every connection
#: has its answer back, so it idles the server for part of a request.
SERVE_CHUNK_S = 1.0


#: Where traced runs write their spans (ignored by git).
TRACE_DIR = HERE.parent / ".perfbench"


@dataclass
class Options:
    seed: int
    seconds: float
    trace: bool
    size: Size = FULL
    #: The CPU the measuring process is pinned to, and serve-warm's
    #: server CPU (see ``hostspeed.cpus``).
    cpus: Tuple[int, int] = (0, 0)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: metric name -> (value, sample count)
    metrics: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: timing metric name -> the same statistic of the plain wall times
    wall: Dict[str, float] = field(default_factory=dict)
    #: the host's speed at every probe and sample (1.0: the reference)
    speeds: List[float] = field(default_factory=list)
    inputs: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def record(
        self, name: str, times: "Timings", statistic: Callable[[List[float]], float],
        samples: Optional[int] = None,
    ) -> None:
        """Store ``statistic`` of the rescaled times, and of the plain ones."""
        self.metrics[name] = (statistic(times.scaled), len(times) if samples is None else samples)
        self.wall[name] = statistic(times.wall)


@dataclass
class Timings:
    """Matching lists of rescaled and plain wall times (seconds)."""

    scaled: List[float] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)

    def add(self, wall: float, factor: float) -> None:
        self.wall.append(wall)
        self.scaled.append(wall * factor)

    def __len__(self) -> int:
        return len(self.scaled)


@dataclass
class Snapshot:
    trial: int
    infected: SignedDiGraph  # never detected on: every operation copies it
    seeds: Dict[Node, NodeState]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def snapshot_steps(dataset: str, count: int, scale: float) -> List[Callable[[], Snapshot]]:
    """One build per trial: generate -> reverse -> Jaccard -> plant -> MFC."""
    config = WorkloadConfig(dataset=dataset, scale=scale)

    def build(trial: int) -> Snapshot:
        built = workload_module.build_workload(config, trial=trial)
        return Snapshot(trial, built.infected, built.seeds)

    return [lambda trial=trial: build(trial) for trial in range(count)]


def build_snapshots(dataset: str, count: int, scale: float) -> List[Snapshot]:
    return [step() for step in snapshot_steps(dataset, count, scale)]


def timed_setup(
    steps: Callable[[], Sequence[Callable[[], Any]]], reps: int, tracer: Optional[Tracer],
    sampler: Sampler,
) -> Tuple[List[Any], Timings]:
    """Run a setup ``reps`` times and return the last run's step values
    and each run's time: the sum of its steps' times, each rescaled by
    the host-speed samples around it.

    ``steps()`` gives one run's steps in order."""
    times = Timings()
    values: List[Any] = []
    for _ in range(reps):
        values, intervals = [], []
        for step in steps():
            start = time.perf_counter()
            if tracer is None:
                values.append(step())
            else:
                with tracer.op("setup", "setup"):
                    values.append(step())
            intervals.append((start, time.perf_counter()))
        scaled, wall = sampler.timings(intervals)
        times.scaled.append(sum(scaled))
        times.wall.append(sum(wall))
    return values, times


def describe_inputs(snapshots: Sequence[Snapshot]) -> List[Dict[str, Any]]:
    # Digests come from copies so the pooled instances stay undigested.
    return [
        {
            "trial": s.trial,
            "nodes": s.infected.number_of_nodes(),
            "planted": len(s.seeds),
            "digest": graph_digest(s.infected.copy()),
        }
        for s in snapshots
    ]


def canonical(result: Any) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def same_detection(a: Any, b: Any) -> bool:
    """The streaming layer's identity contract (``tests/unit/test_stream.py``):
    initiators, states, objective and each tree's members. Tree *edges*
    are left out: on tied link weights the branching depends on the
    order the nodes were inserted in, which the stream engine does not
    preserve."""
    return (
        a.initiators == b.initiators
        and a.states == b.states
        and a.objective == b.objective
        and [sorted(t.nodes(), key=repr) for t in a.trees]
        == [sorted(t.nodes(), key=repr) for t in b.trees]
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(pairs: Sequence[Tuple[Any, Dict[Node, NodeState]]]) -> Dict[str, float]:
    """Detected count, precision, recall and F1 pooled over (result, planted) pairs."""
    detected = sum(len(result.initiators) for result, _ in pairs)
    planted = sum(len(seeds) for _, seeds in pairs)
    hits = sum(len(set(result.initiators) & set(seeds)) for result, seeds in pairs)
    precision = hits / detected if detected else 0.0
    recall = hits / planted if planted else 0.0
    f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
    return {"detected": detected / max(1, len(pairs)), "precision": precision,
            "recall": recall, "f1": f1}


def percentile(values: Sequence[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def record_latency(outcome: Outcome, times: Timings, busy: Timings) -> None:
    """Latency percentiles of ``times``, and operations per second of
    ``busy`` (the measured intervals the operations ran in)."""
    n = len(times)
    outcome.record("latency_p50_ms", times, lambda v: statistics.median(v) * 1e3)
    outcome.record("latency_p90_ms", times, lambda v: percentile(v, 90) * 1e3)
    outcome.record("throughput_rps", busy, lambda v: n / sum(v), samples=n)


def library_layers(
    spans: List[Span], keep: Callable[[Span], bool], root: str, ops: int,
    metrics: Metrics, cache: Tuple[int, int],
) -> Dict[str, float]:
    """Per-operation layer numbers from the spans ``keep`` selects.

    ``root`` names the span that wraps one operation; what its children
    do not cover is ``pipeline.self_s``.
    """
    selfs = self_times(spans, keep)
    root_total = sum(s[2] - s[1] for s in spans if s[0] == root and keep(s))
    root_self = selfs.get(root, 0.0)
    counters, gauges = metrics.counters, metrics.gauges
    k_iterations = counters.get("rid.k_iterations", 0.0)
    hits, misses = cache
    states = gauges.get("rid.tree_dp.memo_states")
    return {
        "core.prune_s": selfs.get("core.prune", 0.0) / ops,
        "core.components_s": selfs.get("core.components", 0.0) / ops,
        "core.arborescence_s": selfs.get("core.arborescence", 0.0) / ops,
        "core.binarize_s": selfs.get("core.binarize", 0.0) / ops,
        "core.components": counters.get("rid.components", 0.0) / ops,
        "core.trees": counters.get("rid.trees", 0.0) / ops,
        "core.pruned_links": counters.get("rid.pruned_links", 0.0) / ops,
        "kernel.tree_dp_s": selfs.get("kernel.tree_dp", 0.0) / ops,
        "kernel.tree_dp.k_iterations": k_iterations / ops,
        "kernel.tree_dp.states_max": states.max if states and states.count else 0.0,
        "pipeline.self_s": root_self / ops,
        "pipeline.digest_s": selfs.get("pipeline.digest", 0.0) / ops,
        "pipeline.knapsack_s": selfs.get("pipeline.knapsack", 0.0) / ops,
        "pipeline.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.stage_coverage": 1.0 - root_self / root_total if root_total else 0.0,
    }


def setup_layers(spans: List[Span], reps: int, snapshots: Sequence[Snapshot]) -> Dict[str, float]:
    selfs = self_times(spans, lambda s: s[4] == "setup")
    return {
        "graphs.generate_s": selfs.get("graphs.generate", 0.0) / reps,
        "graphs.reverse_s": selfs.get("graphs.reverse", 0.0) / reps,
        "weights.jaccard_s": selfs.get("weights.jaccard", 0.0) / reps,
        "diffusion.plant_s": selfs.get("diffusion.plant", 0.0) / reps,
        "diffusion.mfc_s": selfs.get("diffusion.mfc", 0.0) / reps,
        "diffusion.infected": statistics.mean(s.infected.number_of_nodes() for s in snapshots),
    }


def in_op(span: Span) -> bool:
    return span[4] is not None and span[4] != "setup"


def finish_layers(outcome: Outcome, layers: Dict[str, float], ops: int, scores: Dict[str, float]) -> None:
    """Store every per-layer metric (0 for layers the workload never calls)."""
    layers.update({f"detectors.{k}": v for k, v in scores.items() if k != "f1"})
    for name in PER_LAYER:
        outcome.metrics[name] = (float(layers.get(name, 0.0)), ops)


def dump_trace(options: Options, workload: str, tracer: Tracer, **extra: Any) -> None:
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(TRACE_DIR / f"{workload}-seed{options.seed}.json"), **extra)


# ---------------------------------------------------------------------------
# detect-epinions / budget-slashdot
# ---------------------------------------------------------------------------


def run_detect(options: Options, workload: str, sampler: Sampler) -> Outcome:
    budgeted = workload == "budget-slashdot"
    dataset, count = (
        ("slashdot", options.size.slashdot_snapshots) if budgeted
        else ("epinions", options.size.epinions_snapshots)
    )
    outcome = Outcome()
    tracer = Tracer().install(LIBRARY_TARGETS) if options.trace else None
    recorder = MetricsRecorder() if options.trace else None
    try:
        snapshots, setup_times = timed_setup(
            lambda: snapshot_steps(dataset, count, options.size.scale),
            options.size.setup_reps, tracer, sampler,
        )
        order = list(range(len(snapshots)))
        random.Random(options.seed).shuffle(order)
        outcome.inputs = {"snapshots": describe_inputs(snapshots), "order": order}

        def budget_of(i: int) -> Optional[int]:
            return len(snapshots[i].seeds) if budgeted else None

        # Whole cycles until the window has passed, so every run averages
        # the same snapshot mix.
        intervals: List[Tuple[float, float]] = []
        ran: List[Tuple[int, Any]] = []
        cycles = 0
        window = time.perf_counter()
        while cycles == 0 or time.perf_counter() - window < options.seconds:
            cycles += 1
            for i in order:
                graph = snapshots[i].infected.copy()
                outcome.attempted += 1
                start = time.perf_counter()
                try:
                    if tracer is None:
                        result = repro.detect(graph, budget=budget_of(i))
                    else:
                        with tracer.op(len(intervals), "detect"):
                            result = repro.detect(graph, budget=budget_of(i), recorder=recorder)
                except Exception as exc:  # noqa: BLE001 — counted, run continues
                    outcome.fail(f"snapshot {i}: {exc!r}")
                    continue
                intervals.append((start, time.perf_counter()))
                ran.append((i, result))
        times = Timings(*sampler.timings(intervals))
    finally:
        if tracer is not None:
            tracer.remove()

    # Checks: every result equals a freshly built RID on the same snapshot.
    reference: Dict[int, str] = {}
    reference_time: Dict[int, float] = {}
    for i, result in ran:
        if i not in reference:
            graph = snapshots[i].infected.copy()
            start = time.perf_counter()
            rid = RID(RIDConfig())
            expected = rid.detect(graph) if not budgeted else rid.detect_with_budget(graph, budget_of(i))
            reference_time[i] = time.perf_counter() - start
            reference[i] = canonical(expected)
        if canonical(result) != reference[i]:
            outcome.fail(f"snapshot {i}: result differs from RID(RIDConfig())")
    firsts: Dict[int, Any] = {}
    for i, result in ran:
        firsts.setdefault(i, result)
    scores = quality([(firsts[i], snapshots[i].seeds) for i in sorted(firsts)])

    if tracer is None:
        outcome.record("setup_s", setup_times, statistics.median)
        outcome.record("detect_s_mean", times, statistics.mean)
        outcome.metrics.update(peak_rss_mb=(peak_rss_mb(), 1), f1=(scores["f1"], len(firsts)))
        record_latency(outcome, times, times)
        return outcome

    spans = tracer.spans
    layers = setup_layers(spans, options.size.setup_reps, snapshots)
    layers.update(library_layers(spans, in_op, "detect", len(times), recorder.metrics,
                                 (tracer.cache_hits, tracer.cache_misses)))
    detected = sum(len(result.initiators) for _, result in ran)
    k_iterations = recorder.metrics.counters.get("rid.k_iterations", 0.0)
    layers["kernel.tree_dp.useful_k_ratio"] = detected / k_iterations if k_iterations else 0.0
    # Overhead: traced calls against the untraced reference runs above,
    # which do the same work on the same snapshots.
    traced = {i: t for (i, _), t in zip(ran, times.wall)}
    layers["trace.overhead_pct"] = 100.0 * (
        sum(traced.values()) / sum(reference_time[i] for i in traced) - 1.0
    )
    finish_layers(outcome, layers, len(times), scores)
    dump_trace(options, workload, tracer, inputs=outcome.inputs)
    return outcome


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------


class ServerProcess:
    """The serve CLI (default settings, ephemeral port) in its own process."""

    def __init__(self, cpu: int, trace_out: Optional[Path] = None) -> None:
        command = [sys.executable, "-u", str(HERE / "serve_launcher.py"), "--cpu", str(cpu)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "--port", "0"]
        env = dict(os.environ)
        env.pop("REPRO_KERNEL_BACKEND", None)
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:\s]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start (first line {line!r})")
        self.url = f"http://127.0.0.1:{match.group(1)}"

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass
class LoopResult:
    times: Timings
    #: Each chunk's wall time, with the chunk's rescaling factor.
    chunks: Timings
    by_snapshot: List[int]
    start: float
    end: float

    def covers(self, span: Span) -> bool:
        return self.start <= span[1] and span[2] <= self.end


def closed_loop(
    url: str, graphs: Sequence[SignedDiGraph], expected: Sequence[Any],
    orders: Sequence[Sequence[int]], seconds: float, min_samples: int, outcome: Outcome,
    cpus: Sequence[int],
) -> LoopResult:
    """One thread per connection, each sending its next request when the
    previous answer is back; stops once ``seconds`` have passed and at
    least ``min_samples`` requests completed.

    The loop runs in chunks of about ``SERVE_CHUNK_S``: each chunk ends when
    every connection has its last answer back, and a host-speed probe
    runs between chunks, while the server is idle. Answers are checked
    after the loop, so the checks do not contend with the connections."""
    lock = threading.Lock()
    times = Timings()
    chunks = Timings()
    answers: List[Tuple[int, Any]] = []
    clients = [ServeClient(url) for _ in orders]
    steps = [0] * len(orders)

    def connection(c: int, stop: threading.Event, chunk: List[float]) -> None:
        order = orders[c]
        while not stop.is_set():
            i = order[steps[c] % len(order)]
            steps[c] += 1
            start = time.perf_counter()
            try:
                payload = clients[c].detect(graphs[i], raw=True)
            except Exception as exc:  # noqa: BLE001 — counted, loop continues
                with lock:
                    outcome.attempted += 1
                    outcome.fail(f"request for snapshot {i}: {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            with lock:
                outcome.attempted += 1
                chunk.append(elapsed)
                answers.append((i, payload.get("result")))

    stop = threading.Event()
    threads: List[threading.Thread] = []
    try:
        rescaler = Rescaler(cpus)
        start = time.perf_counter()
        deadline = start + max(seconds * 6, 60.0)
        while True:
            stop = threading.Event()
            chunk: List[float] = []
            threads = [threading.Thread(target=connection, args=(c, stop, chunk))
                       for c in range(len(orders))]
            chunk_start = time.perf_counter()
            for thread in threads:
                thread.start()
            time.sleep(SERVE_CHUNK_S)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            chunk_wall = time.perf_counter() - chunk_start
            factor = rescaler.factor()
            chunks.add(chunk_wall, factor)
            for elapsed in chunk:
                times.add(elapsed, factor)
            now = time.perf_counter()
            if (len(times) >= min_samples and now - start >= seconds) or now >= deadline:
                break
        end = time.perf_counter()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        for client in clients:
            client.close()
    outcome.speeds += rescaler.speeds()
    for i, result in answers:
        if result != expected[i]:
            outcome.fail(f"served result for snapshot {i} differs from repro.detect")
    return LoopResult(times, chunks, [i for i, _ in answers], start, end)


def shuffled_cycles(rng: random.Random, count: int) -> List[int]:
    """``SERVE_CYCLES`` back-to-back shuffles of ``range(count)``.

    Every snapshot is sent equally often, and which snapshots meet in
    the server changes from cycle to cycle. With one fixed order per
    connection the loop settles into a pairing set by the seed, and
    same-seed runs agreed within 0.3% in throughput while runs of
    different seeds differed by 20%."""
    order: List[int] = []
    for _ in range(SERVE_CYCLES):
        cycle = list(range(count))
        rng.shuffle(cycle)
        order += cycle
    return order


def stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Window-only serve metrics: the difference of two /v1/stats snapshots."""
    def section(name: str) -> Tuple[Dict, Dict]:
        return before["metrics"][name], after["metrics"][name]

    counters_before, counters_after = section("counters")
    counters = {k: v - counters_before.get(k, 0.0) for k, v in counters_after.items()}
    stats = {}
    for kind in ("timers", "gauges"):
        old, new = section(kind)
        for name, stat in new.items():
            prior = old.get(name, {"count": 0, "total": 0.0})
            stats[name] = (stat["count"] - prior["count"], stat["total"] - prior["total"])
    return {"counters": counters, "stats": stats}


def _mean(delta: Dict[str, Any], name: str) -> float:
    count, total = delta["stats"].get(name, (0, 0.0))
    return total / count if count else 0.0


def _ratio(delta: Dict[str, Any], prefix: str) -> float:
    hits = delta["counters"].get(f"{prefix}.hits", 0.0)
    misses = delta["counters"].get(f"{prefix}.misses", 0.0)
    return hits / (hits + misses) if hits + misses else 0.0


def run_serve(options: Options) -> Outcome:
    size = options.size
    outcome = Outcome()
    # The in-process work (pool builds, reference detects) is rescaled by
    # a sampler; it stops before the server starts, so it takes no
    # interpreter time from the client connections.
    with Sampler() as sampler:
        tracer = Tracer().install(LIBRARY_TARGETS) if options.trace else None
        try:
            snapshots, build_times = timed_setup(
                lambda: snapshot_steps("slashdot", size.slashdot_snapshots, size.scale),
                size.setup_reps, tracer, sampler,
            )
        finally:
            if tracer is not None:
                tracer.remove()

        # Reference results (and detect_s_mean): cold repro.detect per snapshot.
        reference_json: List[str] = []
        detect_intervals: List[Tuple[float, float]] = []
        for s in snapshots:
            graph = s.infected.copy()
            start = time.perf_counter()
            result = repro.detect(graph)
            detect_intervals.append((start, time.perf_counter()))
            reference_json.append(json.dumps(result.to_json()))
        detect_times = Timings(*sampler.timings(detect_intervals))
    outcome.speeds += sampler.speeds()
    graphs = [s.infected for s in snapshots]
    orders = [shuffled_cycles(random.Random(f"{options.seed}/{c}"), len(snapshots))
              for c in range(CONNECTIONS)]
    outcome.inputs = {
        "snapshots": describe_inputs(snapshots),
        "orders_digest": stable_digest(json.dumps(orders)),
    }
    expected = [json.loads(blob) for blob in reference_json]
    request_kb = [
        len(json.dumps(wire.envelope({"graph": encode_graph(g)}))) / 1024.0 for g in graphs
    ]

    # Client and server each run on their own CPU, and both do the work,
    # so the probes around server start, priming and the loop chunks
    # run on both.
    both = sorted(set(options.cpus))

    def serve_phase(trace_out: Optional[Path], seconds: float, min_samples: int):
        # Ready time: server start, then each priming request, each
        # rescaled by the probes around it.
        ready = Timings()
        rescaler = Rescaler(both)
        start = time.perf_counter()
        with ServerProcess(options.cpus[1], trace_out) as server, ServeClient(server.url) as control:
            ready.add(time.perf_counter() - start, rescaler.factor())
            # Prime: one request per snapshot fills the worker caches; each
            # primed answer must equal repro.detect's JSON byte for byte.
            response_kb = []
            for i, graph in enumerate(graphs):
                outcome.attempted += 1
                start = time.perf_counter()
                payload = control.detect(graph, raw=True)
                ready.add(time.perf_counter() - start, rescaler.factor())
                response_kb.append(len(json.dumps(payload)) / 1024.0)
                if json.dumps(payload["result"]) != reference_json[i]:
                    outcome.fail(f"primed result for snapshot {i} differs from repro.detect")
            outcome.speeds += rescaler.speeds()
            before = control.stats()
            loop = closed_loop(server.url, graphs, expected, orders, seconds, min_samples,
                               outcome, both)
            after = control.stats()
            rss = server.peak_rss_mb()
        return ready, loop, stats_delta(before, after), rss, response_kb

    # Every served answer is checked equal to its reference, so scoring
    # the references scores the served results.
    scores = quality([(DetectionResult.from_json(e), s.seeds) for e, s in zip(expected, snapshots)])
    if not options.trace:
        ready, loop, _, rss, _ = serve_phase(None, options.seconds, size.min_samples)
        setup_times = Timings([scaled + sum(ready.scaled) for scaled in build_times.scaled],
                              [wall + sum(ready.wall) for wall in build_times.wall])
        outcome.record("setup_s", setup_times, statistics.median)
        outcome.record("detect_s_mean", detect_times, statistics.mean)
        outcome.metrics.update(peak_rss_mb=(rss, 1), f1=(scores["f1"], len(snapshots)))
        record_latency(outcome, loop.times, loop.chunks)
        return outcome

    # Traced run: an untraced server first, for the overhead baseline,
    # then a server whose launcher installed the layer wrappers.
    half = options.seconds / 2
    _, plain, _, _, _ = serve_phase(None, half, size.min_samples // 2)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    server_trace = TRACE_DIR / f"serve-warm-seed{options.seed}-server.json"
    _, loop, delta, _, response_kb = serve_phase(server_trace, half, size.min_samples // 2)
    with open(server_trace, encoding="utf-8") as handle:
        server = json.load(handle)
    requests = len(loop.times)
    layers = setup_layers(tracer.spans, size.setup_reps, snapshots)
    layers.update(library_layers(
        server["spans"], loop.covers, "detect", requests, Metrics(),
        (server["cache_hits"], server["cache_misses"]),
    ))
    selfs = self_times(server["spans"], loop.covers)
    mean_latency_ms = 1e3 * statistics.mean(loop.times.wall)
    http_ms = 1e3 * _mean(delta, "serve.http.detect")
    counters = delta["counters"]
    layers.update({
        "serve.http_ms": http_ms,
        "serve.handler_ms": 1e3 * _mean(delta, "serve.detect"),
        "serve.queue_wait_ms": 1e3 * _mean(delta, "serve.queue_wait"),
        "serve.client_ms": mean_latency_ms - http_ms,
        "serve.request_kb": statistics.mean(request_kb[i] for i in loop.by_snapshot),
        "serve.response_kb": statistics.mean(response_kb[i] for i in loop.by_snapshot),
        "serve.graph_cache_hit_ratio": _ratio(delta, "serve.graph_cache"),
        "serve.engine_cache_hit_ratio": _ratio(delta, "serve.engine_cache"),
        "serve.coalesced": counters.get("serve.coalesced", 0.0),
        "serve.batch_size_mean": _mean(delta, "serve.batch_size"),
        "serve.shed": counters.get("serve.shed", 0.0),
        "serve.errors": counters.get("serve.errors", 0.0),
        "trace.overhead_pct": 100.0 * (
            statistics.mean(loop.times.wall) / statistics.mean(plain.times.wall) - 1.0
        ),
    })
    for name in ("parse", "digest", "graph_decode", "result_encode"):
        layers[f"serve.wire.{name}_ms"] = 1e3 * selfs.get(f"serve.wire.{name}", 0.0) / requests
    finish_layers(outcome, layers, requests, scores)
    dump_trace(options, "serve-warm", tracer, inputs=outcome.inputs)
    return outcome


# ---------------------------------------------------------------------------
# stream-churn
# ---------------------------------------------------------------------------


class Churn:
    """Deltas that recover nodes and re-infect them with their original states.

    Delta ``t`` targets one component of the initial partition: the
    largest on every ``GIANT_EVERY``-th delta, the others in turn in
    between. It re-infects the nodes recovered in that component last
    time and recovers a fresh random ``CHURN_FRACTION`` of the infected
    nodes there (a component no larger than that alternates between
    fully recovered and restored). Recovering in place keeps the
    partition's shape: flipping states instead would make pruned links
    consistent again and merge the components.
    """

    def __init__(self, engine: StreamingDetectionEngine, rng: random.Random) -> None:
        components = sorted(
            (sorted(c.nodes(), key=repr) for c in engine.components()),
            key=lambda nodes: (-len(nodes), repr(nodes[0])),
        )
        self.giant, self.small = components[0], components[1:]
        self.states = engine.graph.states()
        self.batch = max(1, round(CHURN_FRACTION * sum(map(len, components))))
        self.rng = rng
        self.recovered: Dict[int, List[Node]] = {}
        self.turn = 0

    def _target(self) -> int:
        """Index into ``[giant] + small`` for this turn."""
        turn = self.turn
        self.turn += 1
        if not self.small or turn % GIANT_EVERY == 0:
            return 0
        return 1 + (turn - turn // GIANT_EVERY - 1) % len(self.small)

    def next(self) -> SnapshotDelta:
        target = self._target()
        members = ([self.giant] + self.small)[target]
        back = self.recovered.pop(target, [])
        states = {node: self.states[node] for node in back}
        if not back or len(members) > self.batch:
            candidates = [node for node in members if node not in states]
            fresh = self.rng.sample(candidates, min(self.batch, len(candidates)))
            self.recovered[target] = fresh
            states.update((node, NodeState.INACTIVE) for node in fresh)
        return SnapshotDelta(states=states)

    def restore(self) -> SnapshotDelta:
        """Re-infect everything still recovered: back to the initial snapshot."""
        pending = [node for nodes in self.recovered.values() for node in nodes]
        self.recovered.clear()
        return SnapshotDelta(states={node: self.states[node] for node in pending})


def _replay(
    engine: StreamingDetectionEngine, churn: Churn, seconds: float, min_samples: int,
    outcome: Outcome, sampler: Sampler, tracer: Optional[Tracer] = None,
    recorder: Optional[MetricsRecorder] = None,
) -> Timings:
    """Step deltas until ``seconds`` passed and ``min_samples`` completed."""
    intervals: List[Tuple[float, float]] = []
    attempts = 0
    window = time.perf_counter()
    while attempts < min_samples or time.perf_counter() - window < seconds:
        attempts += 1
        delta = churn.next()
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                engine.step(delta)
            else:
                with tracer.op(attempts, "step"):
                    engine.step(delta, recorder=recorder)
        except Exception as exc:  # noqa: BLE001 — counted, replay continues
            outcome.fail(f"delta {churn.turn - 1}: {exc!r}")
            continue
        intervals.append((start, time.perf_counter()))
    return Timings(*sampler.timings(intervals))


def run_stream(options: Options, sampler: Sampler) -> Outcome:
    size = options.size
    outcome = Outcome()
    tracer = Tracer().install(LIBRARY_TARGETS) if options.trace else None
    recorder = MetricsRecorder() if options.trace else None
    try:
        def warm_start() -> List[Callable[[], Any]]:
            """Build the snapshot, then start an engine on it (warm-start detect)."""
            build, = snapshot_steps("slashdot", 1, size.scale)
            built: List[Snapshot] = []

            def snapshot() -> Snapshot:
                built.append(build())
                return built[0]

            def start() -> StreamingDetectionEngine:
                engine = StreamingDetectionEngine(built[0].infected)
                engine.detect()
                return engine

            return [snapshot, start]

        (snapshot, engine), setup_times = timed_setup(warm_start, size.setup_reps, tracer, sampler)

        # detect_s_mean: cold repro.detect of the initial snapshot, half
        # before and half after the churn window, so one slow stretch of
        # the host does not set the whole mean.
        detect_intervals: List[Tuple[float, float]] = []

        def cold_detects() -> None:
            for _ in range(size.cold_detects if tracer is None else 0):
                graph = snapshot.infected.copy()
                start = time.perf_counter()
                repro.detect(graph)
                detect_intervals.append((start, time.perf_counter()))

        cold_detects()
        preview = Churn(engine, random.Random(options.seed))
        outcome.inputs = {
            "snapshots": describe_inputs([snapshot]),
            "components": [len(preview.giant)] + [len(c) for c in preview.small],
            "first_deltas_digest": stable_digest(
                *(json.dumps(preview.next().to_json()) for _ in range(size.min_samples))
            ),
        }
        churn = Churn(engine, random.Random(options.seed))
        if tracer is None:
            times = _replay(engine, churn, options.seconds, size.min_samples, outcome, sampler)
            cold_detects()
            detect_times = Timings(*sampler.timings(detect_intervals))
        else:
            # Untraced first for the overhead baseline, then traced.
            tracer.remove()
            plain = _replay(engine, churn, options.seconds / 2, size.min_samples // 2, outcome,
                            sampler)
            tracer.install(LIBRARY_TARGETS)
            times = _replay(engine, churn, options.seconds / 2, size.min_samples // 2,
                            outcome, sampler, tracer, recorder)
    finally:
        if tracer is not None:
            tracer.remove()

    # Check: after re-infecting everything, the incremental result must
    # equal a cold repro.detect on the materialised snapshot.
    outcome.attempted += 1
    final = engine.step(churn.restore()).result
    if not same_detection(final, repro.detect(engine.materialise())):
        outcome.fail("stream result differs from a cold repro.detect on materialise()")
    scores = quality([(final, snapshot.seeds)])

    if tracer is None:
        outcome.record("setup_s", setup_times, statistics.median)
        outcome.record("detect_s_mean", detect_times, statistics.mean)
        outcome.metrics.update(peak_rss_mb=(peak_rss_mb(), 1), f1=(scores["f1"], 1))
        record_latency(outcome, times, times)
        return outcome

    spans, deltas = tracer.spans, len(times)
    layers = setup_layers(spans, size.setup_reps, [snapshot])
    layers.update(library_layers(spans, in_op, "step", deltas, recorder.metrics,
                                 (tracer.cache_hits, tracer.cache_misses)))
    counters = recorder.metrics.counters
    reused = counters.get("stream.reused_artifacts", 0.0)
    computed = counters.get("stream.computed_artifacts", 0.0)
    for name in ("apply", "detect"):
        total = sum(s[2] - s[1] for s in spans if s[0] == f"stream.{name}" and in_op(s))
        layers[f"stream.{name}_ms"] = 1e3 * total / deltas
    layers.update({
        "stream.dirty_components": counters.get("stream.dirty_components", 0.0) / deltas,
        "stream.reused_artifacts": reused / deltas,
        "stream.computed_artifacts": computed / deltas,
        "stream.reuse_ratio": reused / (reused + computed) if reused + computed else 0.0,
        "trace.overhead_pct": 100.0 * (statistics.mean(times.wall) / statistics.mean(plain.wall) - 1.0),
    })
    finish_layers(outcome, layers, deltas, scores)
    dump_trace(options, "stream-churn", tracer, inputs=outcome.inputs)
    return outcome


def sampled(options: Options, run: Callable[..., Outcome], *args: Any) -> Outcome:
    """``run(options, *args, sampler)`` with a host-speed sampler running."""
    with Sampler() as sampler:
        outcome = run(options, *args, sampler)
    outcome.speeds += sampler.speeds()
    return outcome


#: Workload name -> runner.
WORKLOADS: Dict[str, Callable[[Options], Outcome]] = {
    "detect-epinions": lambda options: sampled(options, run_detect, "detect-epinions"),
    "budget-slashdot": lambda options: sampled(options, run_detect, "budget-slashdot"),
    "serve-warm": run_serve,
    "stream-churn": lambda options: sampled(options, run_stream),
}
