"""Flat-array MFC and IC cascade fast paths.

These are the production MFC (paper Algorithm 1) and IC simulators;
:class:`repro.diffusion.mfc.MFCModel` and :class:`repro.diffusion.ic.ICModel`
run on them. Both replay the plain dict-loop reading of the algorithms —
a per-round frontier walk over the dict-of-dict graph with a tuple set
of attempted ``(u, v)`` pairs, kept as the test oracle in
``tests/oracles/cascade_loops.py`` — instruction-for-instruction where
it matters:

* node visit order — seeds, per-round frontiers, and each node's
  successor row are walked in ascending node index, which equals the
  dict loop's ``repr``-sorted order by construction of
  :class:`~repro.kernel.compile.CompiledGraph`;
* the one-attempt-per-ordered-pair rule — a byte flag per CSR edge slot
  stands in for the dict loop's ``(u, v)`` tuple set, flipped exactly
  when the loop would have inserted the tuple (i.e. only when an
  attempt actually rolls the RNG);
* RNG consumption — ``random.random()`` is called once per attempted
  slot in the identical sequence, so given the same
  :class:`random.Random` the event log, final states and round count
  are **bit-identical** to the dict loop's, and the caller's generator
  is left in the identical post-run state.

Each model has exactly one loop (:func:`_mfc_loop`, :func:`_ic_loop`)
returning ``(states, rounds, tried, log)``: single cascades decode the
int event log into a :class:`DiffusionResult`, and the batched python
tier (:mod:`repro.kernel.batch`) counts attempts and flips off the same
return.

Node states are bytes: ``0`` inactive, ``1`` state ``+1``, ``2`` state
``-1``. The MFC update ``s(v) = s(u)·s_D(u,v)`` becomes "copy on a
positive link, swap ``1↔2`` (i.e. ``3 - s``) on a negative link".
"""

from __future__ import annotations

import random as _random
import time as _time
from typing import Dict, List, Optional, Tuple

from repro.diffusion.base import ActivationEvent, DiffusionResult
from repro.errors import InvalidSeedError
from repro.kernel.compile import CompiledGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.types import INITIATOR_STATES, Node, NodeState

#: byte encoding of active node states (index 0 is the inactive byte).
_DECODE = (None, NodeState.POSITIVE, NodeState.NEGATIVE)


def check_seeds_compiled(
    compiled: CompiledGraph, seeds: Dict[Node, NodeState]
) -> Dict[Node, NodeState]:
    """:func:`repro.diffusion.base.check_seeds` against a compiled graph.

    Raises:
        InvalidSeedError: on empty seeds, unknown nodes, or states
            outside ``{-1, +1}``.
    """
    if not seeds:
        raise InvalidSeedError("seed assignment is empty")
    validated: Dict[Node, NodeState] = {}
    for node, state in seeds.items():
        if node not in compiled.index:
            raise InvalidSeedError(f"seed node {node!r} is not in the network")
        state = NodeState(state)
        if state not in INITIATOR_STATES:
            raise InvalidSeedError(
                f"seed state for {node!r} must be +1 or -1, got {state!r}"
            )
        validated[node] = state
    return validated


def _plant(
    compiled: CompiledGraph, validated: Dict[Node, NodeState]
) -> Tuple[bytearray, List[int]]:
    """Seed the state array; return it with the round-0 frontier."""
    states = bytearray(compiled.num_nodes)
    frontier = []
    for i, s in _seeded(compiled, validated):
        states[i] = s
        frontier.append(i)
    return states, frontier


def _seeded(
    compiled: CompiledGraph, validated: Dict[Node, NodeState]
) -> List[Tuple[int, int]]:
    """``(node index, state byte)`` per seed, ascending node index."""
    index = compiled.index
    return sorted(
        (index[node], 1 if int(state) > 0 else 2) for node, state in validated.items()
    )


def _seed_events(
    compiled: CompiledGraph, validated: Dict[Node, NodeState]
) -> List[ActivationEvent]:
    """The round-0 events: one per seed, in ascending node index."""
    nodes = compiled.nodes
    return [
        ActivationEvent(round=0, source=None, target=nodes[i], state=_DECODE[s])
        for i, s in _seeded(compiled, validated)
    ]


def _materialise(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    log: List[Tuple[int, int, int, int, bool]],
    rounds: int,
) -> DiffusionResult:
    """Decode the int event log into a :class:`DiffusionResult`.

    ``final_states`` is built seed-first then in first-activation order,
    reproducing the dict loop's insertion order exactly (flips
    re-assign and therefore keep the original position, as in a plain
    dict update).
    """
    nodes = compiled.nodes
    decode = _DECODE
    event = ActivationEvent
    events = _seed_events(compiled, validated)
    append = events.append
    final_states = dict(validated)
    for round_index, u, v, s, was_flip in log:
        state = decode[s]
        target = nodes[v]
        final_states[target] = state
        append(event(round_index, nodes[u], target, state, was_flip))
    return DiffusionResult(
        seeds=validated, final_states=final_states, events=events, rounds=rounds
    )


def _mfc_loop(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
) -> Tuple[bytearray, int, bytearray, List[Tuple[int, int, int, int, bool]]]:
    """The one MFC loop; returns ``(states, rounds, tried, log)``.

    ``tried`` holds the per-slot attempt flags and ``log`` one
    ``(round, u, v, s_new, was_flip)`` int tuple per success. Single
    cascades decode the log into events (:func:`_mfc_cascade`); the
    batched tier (:mod:`repro.kernel.batch`) counts attempts and flips
    off the same return, so both report off the identical RNG stream.
    """
    indptr, targets, _ = compiled.hot_rows()
    signs = compiled.signs
    probs = compiled.probabilities_list(alpha)
    rand = random.random

    states, frontier = _plant(compiled, validated)
    tried = bytearray(compiled.num_edges)
    queued = bytearray(compiled.num_nodes)
    log: List[Tuple[int, int, int, int, bool]] = []
    rounds = 0

    while frontier and rounds < max_rounds:
        rounds += 1
        fresh: List[int] = []
        for u in frontier:
            s_u = states[u]
            if s_u == 0:
                # Mirrors the dict loop's defensive guard; states on the
                # frontier are always active in practice.
                continue
            for slot in range(indptr[u], indptr[u + 1]):
                if tried[slot]:
                    continue
                v = targets[slot]
                s_v = states[v]
                if s_v == 0:
                    was_flip = False
                elif allow_flips and signs[slot] and s_u != s_v:
                    was_flip = True
                else:
                    continue
                tried[slot] = 1
                if rand() < probs[slot]:
                    s_new = s_u if signs[slot] else 3 - s_u
                    states[v] = s_new
                    log.append((rounds, u, v, s_new, was_flip))
                    if not queued[v]:
                        queued[v] = 1
                        fresh.append(v)
        for v in fresh:
            queued[v] = 0
        fresh.sort()
        frontier = fresh

    return states, rounds, tried, log


def _mfc_cascade(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
) -> Tuple[DiffusionResult, bytearray]:
    """One MFC cascade: :func:`_mfc_loop` plus event materialisation.

    Returns the result plus the per-slot attempt flags so the wrapper
    can derive attempt counters without any in-loop bookkeeping.
    ``benchmarks/bench_obs_overhead.py`` times this function directly as
    the uninstrumented baseline — keep it free of recorder calls.
    """
    _, rounds, tried, log = _mfc_loop(
        compiled, validated, random, alpha, allow_flips, max_rounds
    )
    return _materialise(compiled, validated, log, rounds), tried


def _record_cascade(
    recorder: Recorder,
    prefix: str,
    result: DiffusionResult,
    tried,
    seconds: float,
    backend: str = "python",
) -> None:
    """Fold one cascade's counters into ``recorder`` (post-run, O(m)).

    ``tried`` is either the python backend's per-slot attempt flags or a
    backend's pre-summed attempt count.
    """
    recorder.incr(f"{prefix}.cascades")
    recorder.incr(f"{prefix}.backend.{backend}")
    recorder.incr(f"{prefix}.rounds", result.rounds)
    # Every tried slot is one RNG roll on one distinct (u, v) edge — the
    # kernel's unit of work ("edges touched").
    recorder.incr(f"{prefix}.attempts", tried if isinstance(tried, int) else sum(tried))
    flips = sum(1 for event in result.events if event.was_flip)
    activations = len(result.events) - len(result.seeds) - flips
    recorder.incr(f"{prefix}.activations", activations)
    recorder.incr(f"{prefix}.flips", flips)
    recorder.gauge(f"{prefix}.infected", float(len(result.final_states)))
    recorder.timing(f"{prefix}.cascade", seconds)


def run_mfc_compiled(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> DiffusionResult:
    """MFC (paper Algorithm 1) over the CSR arrays.

    ``validated`` must already have passed seed validation (the model
    wrappers call :func:`check_seeds_compiled` first, preserving the
    validate-then-spawn-RNG order).

    ``backend`` picks the execution backend (see
    :mod:`repro.kernel.backends`); ``None`` defers to the
    ``REPRO_KERNEL_BACKEND`` env default, which is the bit-identical
    interpreted path. The result always carries the full event trace;
    estimate-only workloads that need no trace run
    :func:`repro.kernel.batch.run_mfc_batch` instead.

    With an enabled ``recorder`` (explicit or ambient via
    :func:`repro.obs.using_recorder`), per-cascade counters
    (``kernel.mfc.rounds/attempts/activations/flips`` plus a
    ``kernel.mfc.backend.<name>`` marker) and a ``kernel.mfc.cascade``
    timer are recorded; the default
    :class:`~repro.obs.recorder.NullRecorder` costs one branch per
    cascade and nothing inside the hot loop.
    """
    rec = resolve_recorder(recorder)
    engine = _backends.resolve_backend(backend)
    if not rec.enabled:
        return engine.mfc_cascade(
            compiled, validated, random, alpha, allow_flips, max_rounds
        )[0]
    start = _time.perf_counter()
    result, tried = engine.mfc_cascade(
        compiled, validated, random, alpha, allow_flips, max_rounds
    )
    _record_cascade(
        rec, "kernel.mfc", result, tried, _time.perf_counter() - start, engine.name
    )
    return result


def _ic_loop(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    propagate_signs: bool,
) -> Tuple[bytearray, int, bytearray, List[Tuple[int, int, int, int, bool]]]:
    """The one IC loop; returns ``(states, rounds, tried, log)`` like
    :func:`_mfc_loop` (IC never flips, so every log entry says so)."""
    indptr, targets, weights = compiled.hot_rows()
    signs = compiled.signs
    rand = random.random

    states, frontier = _plant(compiled, validated)
    tried = bytearray(compiled.num_edges)
    log: List[Tuple[int, int, int, int, bool]] = []
    rounds = 0

    while frontier:
        rounds += 1
        fresh: List[int] = []
        for u in frontier:
            s_u = states[u]
            for slot in range(indptr[u], indptr[u + 1]):
                if tried[slot]:
                    continue
                v = targets[slot]
                if states[v]:
                    continue  # IC never re-activates (and keeps the slot unspent)
                tried[slot] = 1
                if rand() < weights[slot]:
                    if propagate_signs and not signs[slot]:
                        s_new = 3 - s_u
                    else:
                        s_new = s_u
                    states[v] = s_new
                    log.append((rounds, u, v, s_new, False))
                    fresh.append(v)
        fresh.sort()
        frontier = fresh

    return states, rounds, tried, log


def _ic_cascade(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    propagate_signs: bool,
) -> Tuple[DiffusionResult, bytearray]:
    """One IC cascade: :func:`_ic_loop` plus event materialisation."""
    _, rounds, tried, log = _ic_loop(compiled, validated, random, propagate_signs)
    return _materialise(compiled, validated, log, rounds), tried


def run_ic_compiled(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    propagate_signs: bool,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> DiffusionResult:
    """Independent Cascade over the CSR arrays (sign-blind probabilities).

    Observability and backend selection mirror :func:`run_mfc_compiled`,
    under the ``kernel.ic.*`` names (IC has no flips, so
    ``kernel.ic.flips`` stays zero).
    """
    rec = resolve_recorder(recorder)
    engine = _backends.resolve_backend(backend)
    if not rec.enabled:
        return engine.ic_cascade(compiled, validated, random, propagate_signs)[0]
    start = _time.perf_counter()
    result, tried = engine.ic_cascade(compiled, validated, random, propagate_signs)
    _record_cascade(
        rec, "kernel.ic", result, tried, _time.perf_counter() - start, engine.name
    )
    return result


# Imported last: repro.kernel.backends itself imports nothing from this
# module at import time (the python backend binds _mfc_cascade/_ic_cascade
# lazily in its constructor), but keeping the import at the bottom makes
# the no-cycle property explicit.
from repro.kernel import backends as _backends  # noqa: E402
