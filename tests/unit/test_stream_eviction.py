"""The streaming engine's private artifact cache stays bounded under churn.

A delta that reshapes a component leaves the old shape's Arborescence
and TreeDP artifacts behind; the engine evicts them after the next
detect when it owns its cache, keeps the artifacts of components that
merely vanished, and never evicts from a shared engine or cache.
"""

import random

from repro.core.rid import RIDConfig
from repro.graphs.signed_digraph import SignedDiGraph
from repro.pipeline.cache import ArtifactCache
from repro.stream import SnapshotDelta, StreamingDetectionEngine
from repro.stream.synthetic import synthetic_snapshot
from repro.types import NodeState


def churn(engine: StreamingDetectionEngine, deltas: int, seed: int):
    """Deltas that re-infect last delta's recovered node and recover one
    active node of a multi-node component: every reshaped component has
    survivors, so none ever vanishes."""
    rng = random.Random(seed)
    original = engine.graph.states()
    recovered = None
    for _ in range(deltas):
        states = {}
        if recovered is not None:
            states[recovered] = original[recovered]
        candidates = sorted(
            node
            for component in engine.components()
            if component.number_of_nodes() >= 2
            for node in component.nodes()
            if node != recovered
        )
        recovered = candidates[rng.randrange(len(candidates))]
        states[recovered] = NodeState.INACTIVE
        yield SnapshotDelta(states=states)


def live_artifacts(engine: StreamingDetectionEngine, result) -> int:
    """Artifacts the live partition resolves to: one tree list per
    component plus one greedy TreeDP selection per cascade tree."""
    return engine.component_count() + len(result.trees)


class TestPrivateCacheEviction:
    def test_churn_keeps_cache_at_live_partition(self):
        engine = StreamingDetectionEngine(synthetic_snapshot(components=4, size=14, seed=3))
        cache = engine.engine.cache
        for delta in churn(engine, 200, seed=5):
            hits, misses = cache.hits, cache.misses
            step = engine.step(delta)
            assert len(cache) == live_artifacts(engine, step.result)
            # Eviction reads the old tree lists without counting hits.
            assert cache.hits - hits == step.reused_artifacts
            assert cache.misses - misses == step.computed_artifacts

    def test_vanished_component_keeps_artifacts_for_restore(self):
        g = SignedDiGraph()
        g.add_edge(1, 2, 1, 0.9)
        g.add_edge(2, 3, 1, 0.8)
        g.add_edge(10, 11, 1, 0.7)
        g.set_states({n: NodeState.POSITIVE for n in (1, 2, 3, 10, 11)})
        engine = StreamingDetectionEngine(g)
        engine.detect()
        size = len(engine.engine.cache)
        engine.step(SnapshotDelta(states={10: NodeState.INACTIVE, 11: NodeState.INACTIVE}))
        assert len(engine.engine.cache) == size  # vanished: nothing evicted
        back = engine.step(
            SnapshotDelta(states={10: NodeState.POSITIVE, 11: NodeState.POSITIVE})
        )
        assert back.computed_artifacts == 0

    def test_replaced_component_is_evicted(self):
        g = SignedDiGraph()
        g.add_edge(1, 2, 1, 0.9)
        g.add_edge(2, 3, 1, 0.8)
        g.add_edge(10, 11, 1, 0.7)
        g.set_states({n: NodeState.POSITIVE for n in (1, 2, 3, 10, 11)})
        engine = StreamingDetectionEngine(g)
        engine.detect()
        step = engine.step(SnapshotDelta(states={3: NodeState.INACTIVE}))
        assert len(engine.engine.cache) == live_artifacts(engine, step.result)


class TestSharedCacheIsNeverEvicted:
    def test_shared_cache_keeps_every_artifact(self):
        cache = ArtifactCache(max_entries=4096)
        engine = StreamingDetectionEngine(
            synthetic_snapshot(components=4, size=14, seed=3), cache=cache
        )
        for delta in churn(engine, 200, seed=5):
            step = engine.step(delta)
        assert cache.evictions == 0
        assert len(cache) == cache.misses  # every computed artifact is kept
        assert len(cache) > live_artifacts(engine, step.result)

    def test_shared_engine_keeps_every_artifact(self):
        from repro.pipeline.engine import DetectionEngine

        shared = DetectionEngine(cache=ArtifactCache(max_entries=4096))
        engine = StreamingDetectionEngine(
            synthetic_snapshot(components=3, size=10, seed=4),
            engine=shared,
            config=RIDConfig(),
        )
        for delta in churn(engine, 30, seed=1):
            engine.step(delta)
        assert len(shared.cache) == shared.cache.misses


class TestArtifactCachePeekDiscard:
    def test_discard_returns_cost_and_peek_counts_nothing(self):
        cache = ArtifactCache(max_entries=4, max_cost=100)
        cache.put("a", [1], cost=7)
        cache.put("b", [2], cost=3)
        assert cache.peek("a") == [1]
        assert cache.hits == 0 and cache.misses == 0
        assert cache.keys() == ["a", "b"]  # peek leaves the LRU order alone
        assert cache.discard("a") == 7
        assert cache.discard("a") is None
        assert cache.total_cost == 3
