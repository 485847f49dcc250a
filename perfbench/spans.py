"""In-memory span tracing for the traced benchmark run.

The benchmark measures each layer from outside: :class:`Tracer` swaps a
timing wrapper in for a public function at the module (or class)
attribute its callers look up, records one span per call, and puts the
original back on :meth:`Tracer.remove`. Spans stay in memory and are
written out once, when the run ends.

A span is ``[name, start, end, parent, op]``: ``start``/``end`` come
from :func:`time.perf_counter` (``CLOCK_MONOTONIC`` on Linux, so spans
written by the server process share the client's time base), ``parent``
is the index of the enclosing span on the same thread (``-1`` for a
root) and ``op`` is the operation id the benchmark loop set with
:meth:`Tracer.op` (``None`` outside one). A span's *self time* is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Layer spans of the in-process path: ``(module, attribute, span name)``.
#: A dotted attribute names a method on a class of that module. Every
#: entry is the attribute its caller resolves at call time, so the
#: wrapper sees every call the default path makes.
LIBRARY_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.workload", "generate_profiled_network", "graphs.generate"),
    ("repro.experiments.workload", "to_diffusion_network", "graphs.reverse"),
    ("repro.experiments.workload", "assign_jaccard_weights", "weights.jaccard"),
    ("repro.experiments.workload", "plant_random_initiators", "diffusion.plant"),
    ("repro.diffusion.mfc", "MFCModel.run", "diffusion.mfc"),
    ("repro.pipeline.stages", "prune_graph", "core.prune"),
    ("repro.pipeline.stages", "split_components", "core.components"),
    ("repro.pipeline.stages", "extract_component_trees", "core.arborescence"),
    ("repro.pipeline.stages", "binarize_tree", "core.binarize"),
    ("repro.pipeline.stages", "greedy_tree_selection", "kernel.tree_dp"),
    ("repro.pipeline.stages", "tree_curve", "kernel.tree_dp"),
    ("repro.pipeline.stages", "SelectionStage.knapsack", "pipeline.knapsack"),
    ("repro.pipeline.engine", "graph_digest", "pipeline.digest"),
    ("repro.stream.engine", "StreamingDetectionEngine.apply", "stream.apply"),
    ("repro.stream.engine", "StreamingDetectionEngine.detect", "stream.detect"),
)

#: Server-side spans, installed in the server process only: the wire
#: codec, plus RID's entry points as the root span of each detection
#: (the client calls some of these to build its reference results).
SERVE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.rid", "RID.detect", "detect"),
    ("repro.core.rid", "RID.detect_with_budget", "detect"),
    ("repro.serve.wire", "parse_body", "serve.wire.parse"),
    ("repro.serve.wire", "payload_digest", "serve.wire.digest"),
    ("repro.serve.wire", "graph_from_json", "serve.wire.graph_decode"),
    ("repro.detectors.base", "DetectionResult.to_json", "serve.wire.result_encode"),
)

#: Artifact-cache lookups, counted rather than timed: a lookup returns
#: the cached value or the ``MISS`` sentinel.
CACHE_LOOKUP = ("repro.pipeline.cache", "ArtifactCache.lookup")

Span = List[Any]


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans around wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        # (owner, attribute, original, owned) — ``owned`` records whether
        # the owner itself defined the attribute (else it was inherited).
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    # -- span recording --------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record: Span = [name, time.perf_counter(), 0.0, parent, getattr(self._local, "op", None)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: Any, name: str) -> Iterator[None]:
        """Mark one benchmark operation: a root span tagged ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._local.op = previous

    # -- wrapper installation --------------------------------------------

    def _swap(self, module_name: str, attribute: str, make: Callable[[Any], Any]) -> None:
        owner, name = _resolve(module_name, attribute)
        original = getattr(owner, name)
        owned = name in vars(owner)
        setattr(owner, name, make(original))
        self._installed.append((owner, name, original, owned))

    def install(self, targets: Iterable[Tuple[str, str, str]] = LIBRARY_TARGETS) -> "Tracer":
        """Wrap every target and the artifact-cache lookup counter."""
        for module_name, attribute, span_name in targets:
            self._swap(module_name, attribute, lambda fn, n=span_name: self._timed(fn, n))
        self._swap(*CACHE_LOOKUP, self._counted_lookup)
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, name, original, owned = self._installed.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _timed(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted_lookup(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        from repro.pipeline.cache import MISS

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            value = fn(*args, **kwargs)
            with self._lock:
                if value is MISS:
                    self.cache_misses += 1
                else:
                    self.cache_hits += 1
            return value

        return wrapper

    # -- output ----------------------------------------------------------

    def dump(self, path: str, **extra: Any) -> None:
        payload = dict(extra, spans=self.spans, cache_hits=self.cache_hits,
                       cache_misses=self.cache_misses)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(
    spans: List[Span], keep: Callable[[Span], bool] = lambda span: True
) -> Dict[str, float]:
    """Total self time per span name over the spans ``keep`` accepts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if keep(span):
            name, start, end = span[0], span[1], span[2]
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals
