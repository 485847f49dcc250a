"""Vectorized (numpy) execution of the compiled kernels.

Importing this module requires numpy; :mod:`repro.kernel.backends` only
does so after a successful feature probe.

Cascades — batched frontier rounds (statistical-identity tier)
--------------------------------------------------------------

There is one MFC loop (``_mfc_sweep``, behind :func:`mfc_batch`) and
one IC loop (``_ic_sweep``, behind :func:`ic_batch`); they advance T
trials together, and a single cascade is a T = 1 batch
(``NumpyBackend.mfc_cascade`` / ``ic_cascade`` in
:mod:`repro.kernel.backends`, which decode the winners log with
:func:`_materialise_arrays`).

Per round, the candidate attempts of the whole frontier are processed
as one array program: gather every untried CSR slot out of the frontier
rows, filter by round-start eligibility, draw one vectorized Bernoulli
batch against the per-α attempt-probability cache, then resolve
conflicts per target. Conflict resolution reproduces the reference's
sequential semantics *in distribution*: candidates for a target are
ordered exactly as the reference visits them (ascending source, then
ascending slot), attempts are only charged up to and including the
first success — slots after a success stay untried, as they would had
the reference stopped attempting an already-activated node — and the
first success wins the activation. Under ``p = 1`` and ``p = 0`` this
makes reachable sets, frontiers, round counts and attempt counts
*exactly* equal to the interpreted backend (property-gated by
``tests/property/test_backend_identity.py``); for ``0 < p < 1`` the RNG
is consumed in a different order (one batch per round, over-drawing for
candidates that lose their conflict group), so individual cascades
diverge draw-for-draw while every per-edge success probability — and
therefore the distribution of spread estimates — is unchanged.

One documented divergence: the reference lets *mid-round* state changes
re-qualify later attempts (a node freshly activated by a low-index
source can be flip-targeted by a higher-index source in the same MFC
round, and a flipped source propagates its new state within the round).
The batched rounds evaluate eligibility and source states against the
round *start*, deferring such chains to the next round. Reachability is
unaffected (flips never un-infect), and the flip-rate shift is part of
the statistical tier's tolerance gate.

The RNG contract: the per-trial integer seeds seed one
``numpy.random.Generator`` per batch (a single cascade draws its one
trial seed from the caller's :class:`random.Random`), so runs remain
deterministic given the seed — just under a different stream than the
reference.

TreeDP — per-level vectorized sweeps (bit-identical)
----------------------------------------------------

:func:`tree_sweep` fills the same ``[budget][ancestor-depth]`` tables
as ``TreeDPKernel._sweep_python``, but each node's table is one
``(budget, depth)`` float matrix and the split scan becomes ``m``-many
row-batched ``maximum`` updates. The DP draws no randomness and every
float is produced by the same left-to-right additions
(``(own + left) + right``) with the same strict-improvement,
ascending-``m`` tie-breaking, so scores *and* decisions stay
bit-identical to the interpreted sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.diffusion.base import ActivationEvent, DiffusionResult
from repro.kernel.cascade import _DECODE, _seed_events, _seeded
from repro.kernel.compile import CompiledGraph
from repro.types import Node, NodeState

_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Compiled-graph array views
# ---------------------------------------------------------------------------


def _ensure_arrays(compiled: CompiledGraph) -> dict:
    """ndarray views of the CSR arrays, cached on the compiled graph.

    Derived data, like ``CompiledGraph.hot_rows``: excluded from
    pickling and rebuilt on first use in each process. The ``scratch``
    entry holds the conflict-resolution work buffers — freshly mmapped
    pages cost a page fault per first touch, so the pool reuses them
    across rounds *and* batches.
    """
    cache = compiled._np
    if cache is None:
        # int32 row offsets halve the bytes the frontier-row gathers
        # move; int64 only when the edge count actually needs it.
        itype = np.int64 if compiled.num_edges >= _I32_MAX else np.int32
        # Node ids get their own dtype: uint16 when every id + 1 fits
        # (frontier nodes are bumped by one to index ``indptr`` row
        # ends), quartering the bytes of the target gathers.
        ttype = np.uint16 if compiled.num_nodes <= 0xFFFF else itype
        cache = {
            "indptr": np.asarray(compiled.indptr, dtype=itype),
            "targets": np.asarray(compiled.targets, dtype=ttype),
            "signs": np.frombuffer(bytes(compiled.signs), dtype=np.uint8) != 0,
            # f32 for the same reason as the MFC probability cache: the
            # IC loop gathers this per candidate slot every round.
            "weights": np.asarray(compiled.weights, dtype=np.float32),
            "probs": {},
            "scratch": {},
        }
        compiled._np = cache
    return cache


def _scratch(cache: dict, name: str, size: int, dtype) -> np.ndarray:
    """A length-``size`` view of the named reusable work buffer."""
    pool = cache["scratch"]
    buf = pool.get(name)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, 1024), dtype)
        pool[name] = buf
    return buf[:size]


_IOTAS: Dict[object, np.ndarray] = {}

#: Largest ``int32``: graphs with this many edges need int64 offsets.
_I32_MAX = np.iinfo(np.int32).max


def _iota(n: int, dtype=np.int64) -> np.ndarray:
    """A read-only ``arange(n)`` slice off one growing buffer per dtype."""
    key = np.dtype(dtype)
    buf = _IOTAS.get(key)
    if buf is None or buf.size < n:
        buf = np.arange(max(n, 0 if buf is None else 2 * buf.size, 1024), dtype=key)
        _IOTAS[key] = buf
    return buf[:n]


def _probabilities(compiled: CompiledGraph, alpha: float) -> np.ndarray:
    """Per-α MFC attempt probabilities as a ``float32`` gather array.

    Single precision halves the hot loop's largest gather and its draw
    traffic. The boundary regimes stay exact (0.0 and 1.0 are f32
    representable, so the ``p = 0`` / ``p = 1`` identity gates are
    unaffected); interior probabilities round at ~1e-7 relative — far
    inside the statistical tier's distributional tolerance.
    """
    cache = _ensure_arrays(compiled)
    key = float(alpha)
    probs = cache["probs"].get(key)
    if probs is None:
        probs = np.asarray(compiled.probabilities(key), dtype=np.float32)
        cache["probs"][key] = probs
    return probs


def _run_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(start, start + count)`` runs, in run order.

    With ``starts`` being the CSR row offsets of an ascending frontier
    this is every frontier slot in the reference's visit order
    (ascending source, then ascending target within a row); with block
    offsets it indexes a subset of rows inside such a slot array. One
    ``repeat`` of the iota-corrected run bases plus an in-place add of
    the shared iota — the repeat is the only per-round allocation, and
    both passes vectorise (a cumsum-based run-sum was measured ~3x
    slower here: the scan's serial dependency beats the extra copy).
    """
    ends_excl = np.cumsum(counts) - counts
    slots = np.repeat(starts - ends_excl, counts)
    slots += _iota(slots.size, slots.dtype)
    return slots


def _no_success(itype) -> int:
    """Per-node "no success this round" sentinel: the dtype's max value
    (always above every candidate position, which is bounded by the
    edge count and therefore representable)."""
    return int(np.iinfo(itype).max)


def _resolve_round(
    cache: dict, tgt: np.ndarray, succ: np.ndarray, first: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sequential-equivalent conflict resolution for one batched round.

    Given candidates in reference visit order, returns boolean masks
    ``(unattempted, winner)``: attempts run per target group up to and
    including its first success (everything, if none succeeds — so
    ``unattempted`` marks the slots *after* a success, which stay
    untried exactly as they would had the reference stopped attempting
    an already-activated node), and the first success is the group's
    single winner. ``first`` is a reusable per-node scratch array
    pinned at its dtype's :func:`_no_success` sentinel; the scatter-min
    over success positions replaces a sort over all candidates, and
    touched entries are reset before returning. Both returned masks
    live in scratch buffers that the next round reuses.
    """
    n = tgt.size
    succ_idx = np.flatnonzero(succ).astype(first.dtype)
    if succ_idx.size:
        succ_tgt = tgt[succ_idx]
        np.minimum.at(first, succ_tgt, succ_idx)
    first_pos = _scratch(cache, "first_pos", n, first.dtype)
    np.take(first, tgt, out=first_pos)
    pos = _iota(n, first.dtype)
    unattempted = _scratch(cache, "unattempted", n, bool)
    np.greater(pos, first_pos, out=unattempted)
    winner = _scratch(cache, "winner", n, bool)
    np.equal(pos, first_pos, out=winner)
    winner &= succ
    if succ_idx.size:
        first[succ_tgt] = _no_success(first.dtype)
    return unattempted, winner


def _materialise_arrays(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    log: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    rounds: int,
) -> DiffusionResult:
    """Array-log counterpart of :func:`repro.kernel.cascade._materialise`.

    A T = 1 batch run with a ``log`` keeps each round's winners as numpy
    arrays; this
    decodes them in one bulk ``tolist`` pass per round instead of
    round-by-round tuple zipping inside the hot loop. Event objects are
    built by installing the instance ``__dict__`` directly: the frozen
    dataclass ``__init__`` funnels every field through
    ``object.__setattr__``, which at tens of thousands of events per
    cascade is a measurable slice of the whole run. The resulting
    instances are indistinguishable (same fields, ``==``/``hash``/
    immutability all behave identically) — pinned by the backend unit
    tests. ``final_states`` insertion order matches the reference:
    seeds first, then first-activation order, flips re-assign in place.
    """
    nodes = compiled.nodes
    decode = _DECODE
    new = ActivationEvent.__new__
    cls = ActivationEvent
    events = _seed_events(compiled, validated)
    append = events.append
    final_states = dict(validated)
    for round_index, w_src, w_tgt, s_new, was_flip in log:
        for u, v, s, flip in zip(
            w_src.tolist(), w_tgt.tolist(), s_new.tolist(), was_flip.tolist()
        ):
            state = decode[s]
            target = nodes[v]
            final_states[target] = state
            event = new(cls)
            event.__dict__.update(
                round=round_index,
                source=nodes[u],
                target=target,
                state=state,
                was_flip=flip,
            )
            append(event)
    return DiffusionResult(
        seeds=validated, final_states=final_states, events=events, rounds=rounds
    )


# ---------------------------------------------------------------------------
# Batched multi-trial cascades
# ---------------------------------------------------------------------------
#
# All T trials advance together as a (T, n) uint8 state matrix plus a
# *sparse* frontier: parallel (trial, node) index arrays kept sorted in
# row-major (trial, then node ascending) order. Winners come out of the
# conflict resolution as unique (trial, target) pairs, so the next
# round's frontier IS the winner list — one O(W log W) key sort restores
# row-major order (which fixes the candidate visit order and therefore
# the deterministic winner choice the p=1 invariants pin), where W is
# the live frontier size. A dense (T, n) frontier matrix was measured
# first and loses exactly where batching should win — long-tailed
# near-critical cascades with small frontiers — because every round
# pays O(T·n) to scan/clear the matrix regardless of how little is
# alive.
#
# Each global round expands the frontier pairs into one candidate
# array — CSR slot runs (`_run_ranges`) with the trial id repeated
# alongside — and resolves conflicts on *flattened* keys: the
# scatter-min runs over `trial * n + target`, the one-attempt-per-pair
# flags over `trial * m + slot` (int64 keys throughout, so the products
# never overflow the index dtype). One RNG draw block per round covers every
# trial's attempts, which is the whole point: the per-round dispatch
# overhead (mask setup, take / compress staging, RNG slicing) is paid
# once per round instead of once per round *per trial*. Trials that
# quiesce (or hit max_rounds) simply stop contributing candidates.
#
# RNG derivation: the per-trial integer seeds (derive_seed(base, name,
# t), computed by the caller) are folded into one SeedSequence, so the
# batch is deterministic given (base_seed, trial count) — but under a
# different stream than the reference: this tier is statistical, and a
# trial's result depends on the whole seed list, so it differs from the
# same seed run as a T = 1 batch. Round semantics match the
# reference per trial: a trial's round counter increments exactly when
# its frontier enters a round non-empty and below max_rounds — including
# a final all-failure round.
#
# Event log (T = 1 only): given a list, the loops append each round's
# winners as `(round, w_src, w_tgt, s_new, was_flip)` arrays. With one
# trial the flattened keys are node indices and row-major candidate
# order is slot order, so the log replays the reference's event order
# for `_materialise_arrays`.


def _seed_batch(
    compiled: CompiledGraph, validated: Dict[Node, NodeState], trials: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, n) state matrix plus the sparse seed frontier, row-major.

    Returns ``(states, f_tr, f_un)``: every trial seeded alike, the
    frontier as parallel (trial, node) arrays sorted by trial then node
    index — ``tile``/``repeat`` over the ascending seed positions yields
    that order directly.
    """
    n = compiled.num_nodes
    seeded = _seeded(compiled, validated)
    idx = np.fromiter((i for i, _ in seeded), dtype=np.int64, count=len(seeded))
    vals = np.fromiter((s for _, s in seeded), dtype=np.uint8, count=len(seeded))
    states = np.zeros((trials, n), dtype=np.uint8)
    states[:, idx] = vals
    f_tr = np.repeat(np.arange(trials, dtype=np.int64), idx.size)
    f_un = np.tile(idx, trials)
    return states, f_tr, f_un


def _batch_rng(trial_seeds) -> np.random.Generator:
    """One SFC64 stream for the whole batch, derived from the trial seeds."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF for seed in trial_seeds]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy or [0])))


def _batch_summary(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    states: np.ndarray,
    flips: np.ndarray,
    rounds: np.ndarray,
    attempts: int,
    record_states: bool,
):
    """Count the final state mix per trial and box it as a batch summary."""
    from repro.kernel.batch import CascadeBatchSummary

    positive = (states == 1).sum(axis=1)
    negative = (states == 2).sum(axis=1)
    return CascadeBatchSummary(
        nodes=compiled.nodes,
        index=compiled.index,
        seeds=dict(validated),
        trials=states.shape[0],
        infected=(positive + negative).tolist(),
        positive=positive.tolist(),
        negative=negative.tolist(),
        flips=flips.tolist(),
        rounds=rounds.tolist(),
        attempts=int(attempts),
        states=states if record_states else None,
    )


def mfc_batch(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds,
    namespace: str,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
    record_states: bool = False,
):
    """T MFC cascades as one ``(T, n)`` matrix sweep (statistical tier)."""
    return _batch_summary(
        compiled,
        validated,
        *_mfc_sweep(compiled, validated, trial_seeds, alpha, allow_flips, max_rounds),
        record_states,
    )


def _mfc_sweep(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
    log: Optional[list] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The MFC loop behind :func:`mfc_batch`.

    Returns ``(states, flips, rounds, attempts)``; a ``log`` list (T = 1
    only) collects each round's winners.
    """
    arrays = _ensure_arrays(compiled)
    indptr, targets, signs = arrays["indptr"], arrays["targets"], arrays["signs"]
    probs = _probabilities(compiled, alpha)
    rng = _batch_rng(trial_seeds)
    T = len(trial_seeds)
    n = compiled.num_nodes
    m = compiled.num_edges

    states, f_tr, f_un = _seed_batch(compiled, validated, T)
    flat_states = states.reshape(-1)
    # Per-(trial, slot) one-attempt flags, flat. O(T * m) bools — the
    # batch tier's only superlinear buffer; allocated upfront because a
    # flip in round r can re-queue a source whose slots were attempted
    # in any earlier round.
    untried = np.ones(T * m, dtype=bool) if allow_flips else None
    first = np.full(T * n, _no_success(np.int64), dtype=np.int64)
    rounds = np.zeros(T, dtype=np.int64)
    flips = np.zeros(T, dtype=np.int64)
    attempts = 0
    may_retry = False  # True once any flip has re-queued a seen source

    while f_tr.size:
        live = rounds[f_tr] < max_rounds
        if not live.all():  # retire capped trials
            f_tr, f_un = f_tr[live], f_un[live]
            if not f_tr.size:
                break
        present = np.zeros(T, dtype=bool)
        present[f_tr] = True
        rounds[present] += 1
        tr, un = f_tr, f_un  # row-major: by trial, then node asc
        starts = indptr[un]
        counts = indptr[un + 1] - starts
        nzm = counts > 0
        if not nzm.all():  # zero-degree rows contribute no slots
            tr, un = tr[nzm], un[nzm]
            starts, counts = starts[nzm], counts[nzm]
        if not counts.size:
            break
        slots = _run_ranges(starts, counts)
        trial_of = np.repeat(tr, counts)
        s_src = np.repeat(flat_states[tr * n + un], counts)
        tgt = targets[slots]
        tkey = trial_of * n + tgt
        s_t = flat_states[tkey]
        fresh = s_t == 0
        if allow_flips:
            keep = (signs[slots] & (s_src != s_t)) | fresh
        else:
            keep = fresh  # flips off: eligibility is freshness alone
        if not keep.all():
            slots = slots[keep]
            trial_of = trial_of[keep]
            tkey = tkey[keep]
        if not slots.size:
            break
        if may_retry:
            seen = untried[trial_of * m + slots]
            if not seen.all():
                slots = slots[seen]
                trial_of = trial_of[seen]
                tkey = tkey[seen]
                if not slots.size:
                    break
        k = slots.size
        draws = rng.random(k, dtype=np.float32)
        succ = draws < probs[slots]
        unatt, winner = _resolve_round(arrays, tkey, succ, first)
        if allow_flips:
            untried[trial_of * m + slots] = unatt
        attempts += k - int(np.count_nonzero(unatt))
        win = np.flatnonzero(winner)
        if not win.size:
            break  # no winners anywhere: every trial quiesces
        w_slots = slots[win]
        w_trial = trial_of[win]
        w_tkey = tkey[win]
        w_src = np.searchsorted(indptr, w_slots, side="right") - 1
        s_u = flat_states[w_trial * n + w_src]
        s_new = np.where(signs[w_slots], s_u, 3 - s_u).astype(np.uint8)
        was_flip = flat_states[w_tkey] != 0
        if log is not None:
            log.append((int(rounds[0]), w_src, w_tkey, s_new, was_flip))
        if was_flip.any():
            flips += np.bincount(w_trial[was_flip], minlength=T)
            if allow_flips:
                may_retry = True
        flat_states[w_tkey] = s_new
        # Winners are unique per (trial, target) key, so they *are* the
        # next frontier; sorting the keys restores row-major order.
        order = np.argsort(w_tkey)
        w_tkey = w_tkey[order]
        f_tr = w_trial[order]
        f_un = w_tkey - f_tr * n

    return states, flips, rounds, attempts


def ic_batch(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds,
    namespace: str,
    propagate_signs: bool,
    record_states: bool = False,
):
    """T IC cascades as one ``(T, n)`` matrix sweep (statistical tier)."""
    return _batch_summary(
        compiled,
        validated,
        *_ic_sweep(compiled, validated, trial_seeds, propagate_signs),
        record_states,
    )


def _ic_sweep(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds,
    propagate_signs: bool,
    log: Optional[list] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The IC loop behind :func:`ic_batch`; returns and logs like
    :func:`_mfc_sweep`.

    Same flattened-key scheme, minus flips, one-attempt flags and the
    round cap — IC activation is one-shot.
    """
    arrays = _ensure_arrays(compiled)
    indptr, targets, signs = arrays["indptr"], arrays["targets"], arrays["signs"]
    weights = arrays["weights"]
    rng = _batch_rng(trial_seeds)
    T = len(trial_seeds)
    n = compiled.num_nodes

    states, f_tr, f_un = _seed_batch(compiled, validated, T)
    flat_states = states.reshape(-1)
    first = np.full(T * n, _no_success(np.int64), dtype=np.int64)
    rounds = np.zeros(T, dtype=np.int64)
    attempts = 0

    while f_tr.size:
        present = np.zeros(T, dtype=bool)
        present[f_tr] = True
        rounds[present] += 1
        tr, un = f_tr, f_un
        starts = indptr[un]
        counts = indptr[un + 1] - starts
        nzm = counts > 0
        if not nzm.all():
            tr, un = tr[nzm], un[nzm]
            starts, counts = starts[nzm], counts[nzm]
        if not counts.size:
            break
        slots = _run_ranges(starts, counts)
        trial_of = np.repeat(tr, counts)
        tgt = targets[slots]
        tkey = trial_of * n + tgt
        keep = flat_states[tkey] == 0  # IC never re-activates
        if not keep.all():
            slots = slots[keep]
            trial_of = trial_of[keep]
            tkey = tkey[keep]
        if not slots.size:
            break
        k = slots.size
        draws = rng.random(k, dtype=np.float32)
        succ = draws < weights[slots]
        unatt, winner = _resolve_round(arrays, tkey, succ, first)
        attempts += k - int(np.count_nonzero(unatt))
        win = np.flatnonzero(winner)
        if not win.size:
            break
        w_slots = slots[win]
        w_trial = trial_of[win]
        w_tkey = tkey[win]
        w_src = np.searchsorted(indptr, w_slots, side="right") - 1
        s_u = flat_states[w_trial * n + w_src]
        if propagate_signs:
            s_new = np.where(signs[w_slots], s_u, 3 - s_u).astype(np.uint8)
        else:
            s_new = s_u.astype(np.uint8)
        flat_states[w_tkey] = s_new
        if log is not None:
            log.append(
                (int(rounds[0]), w_src, w_tkey, s_new, np.zeros(win.size, dtype=bool))
            )
        order = np.argsort(w_tkey)
        w_tkey = w_tkey[order]
        f_tr = w_trial[order]
        f_un = w_tkey - f_tr * n

    return states, np.zeros(T, dtype=np.int64), rounds, attempts


# ---------------------------------------------------------------------------
# TreeDP sweep
# ---------------------------------------------------------------------------


def tree_sweep(kernel, cap: int) -> None:
    """Level-batched twin of ``TreeDPKernel._sweep_python`` (bit-identical).

    Every node at depth ``d`` has both children at depth ``d + 1``, and
    all level-``d`` tables share the anc-axis width ``d + 1`` — so one
    bottom-up pass over *levels* can fill a whole level's tables as a
    single stacked ``(nodes, budget, anc)`` tensor, turning the split
    scan into ``cap + 1`` tensor updates per level instead of per node.

    Per-node budget feasibility is encoded by padding: every table gets
    the full ``cap + 1`` budget rows, with infeasible rows (``k`` above
    the subtree's real size, or beyond a child's capacity) held at
    ``-inf``. Real scores are finite (sums of products of non-negative
    ``g`` factors plus initiator units), so under the strict-``>``
    ascending-``m`` scan a padded candidate can never win, never seed a
    row, and never steal a tie — the surviving score *and* decision per
    feasible ``(k, anc)`` slot are exactly the interpreted sweep's, and
    every float is produced by the same left-to-right additions
    (``(own + left) + right``). A missing child is one shared sentinel
    row (``0.0`` at ``k = 0``, ``-inf`` above): the same ``+ 0.0`` /
    infeasible terms the interpreted code special-cases.

    Fills ``kernel._root_scores`` / ``kernel._dec`` / ``kernel._cap`` /
    ``kernel.memo_states``. Decision rows are ``int32`` matrices with
    the same ``(m << 1) | initiator`` packing the reconstruction walk
    expects; ``int32`` holds any split of a ``2**30``-node tree, far
    beyond the guarded interpreted typecodes.
    """
    ct = kernel.tree
    n = ct.size
    depth = np.asarray(ct.depth, dtype=np.int64)
    left = np.asarray(ct.left, dtype=np.int64)
    right = np.asarray(ct.right, dtype=np.int64)
    real_size = np.asarray(ct.real_size, dtype=np.int64)
    is_dummy = np.frombuffer(bytes(ct.is_dummy), dtype=np.uint8) != 0
    gpath = ct.gpath
    K = cap + 1

    # Bucket positions by depth; remember each position's slot in its
    # level stack so parents can gather child tables by index. Within a
    # level (where nodes are mutually independent) order by descending
    # left-child capacity: the split scan over m can then stop at the
    # prefix of nodes whose left subtree can still supply m initiators,
    # instead of padding every node to the full (cap, cap) split range.
    lcaps_all = np.where(left >= 0, real_size[np.where(left >= 0, left, 0)], 0)
    rcaps_all = np.where(right >= 0, real_size[np.where(right >= 0, right, 0)], 0)
    max_depth = int(depth.max())
    order = np.lexsort((-lcaps_all, depth))
    bounds = np.searchsorted(depth[order], np.arange(max_depth + 2))
    levels = [order[bounds[d] : bounds[d + 1]] for d in range(max_depth + 1)]
    level_slot = np.empty(n, dtype=np.int64)
    for members in levels:
        level_slot[members] = np.arange(members.size)

    dec: List[object] = [None] * n
    prev_S = None  # level d+1 stack, sentinel row last
    S = None
    for d in range(max_depth, -1, -1):
        members = levels[d]
        P = members.size
        w = d + 1
        if prev_S is None:
            # Deepest level: every child is the missing-child sentinel.
            prev_S = np.full((1, K, w + 1), _NEG_INF)
            prev_S[0, 0, :] = 0.0
        sentinel = prev_S.shape[0] - 1
        l, r = left[members], right[members]
        l_idx = np.where(l >= 0, level_slot[np.where(l >= 0, l, 0)], sentinel)
        r_idx = np.where(r >= 0, level_slot[np.where(r >= 0, r, 0)], sentinel)
        SL = prev_S[l_idx]  # (P, K, w + 1)
        SR = prev_S[r_idx]
        real = ~is_dummy[members]
        own = np.zeros((P, w))
        if w > 1:
            gp = np.asarray([gpath[p] for p in members])  # (P, w)
            own[:, 1:] = np.where(real[:, None], gp[:, : w - 1], 0.0)

        # One extra row at the end is the *next* level up's missing-child
        # sentinel (0.0 at k = 0, -inf above) — allocated here so handing
        # the stack to the parent needs no concatenate/copy.
        stack = np.full((P + 1, K, w), _NEG_INF)
        stack[-1, 0, :] = 0.0
        S = stack[:P]
        D = np.zeros((P, K, w), dtype=np.int32)
        SLw, SRw = SL[:, :, :w], SR[:, :, :w]

        # Split-scan extents. Members are lcap-descending, so for each m
        # only the prefix with lcap >= m is live; the j extent is capped
        # by that prefix's largest right capacity. Nodes inside a slice
        # whose own rcap is smaller are harmless: their padded child
        # rows are -inf and can never win or tie.
        lcaps = np.minimum(lcaps_all[members], K - 1)
        counts = np.bincount(lcaps, minlength=K)
        live = counts[::-1].cumsum()[::-1]  # live[m]: nodes with lcap >= m
        prefix_rcap = np.maximum.accumulate(rcaps_all[members])

        # Case 1: not an initiator; split k = m + j over the children.
        # Ascending m with strict improvement — the reference order.
        for m in range(K):
            cnt = int(live[m])
            if cnt == 0:
                break
            jext = min(K - m, int(prefix_rcap[cnt - 1]) + 1)
            cand = (own[:cnt] + SLw[:cnt, m])[:, None, :] + SRw[:cnt, :jext]
            rows = S[:cnt, m : m + jext]
            drows = D[:cnt, m : m + jext]
            better = cand > rows
            np.copyto(rows, cand, where=better)
            np.copyto(drows, np.int32(m + m), where=better)

        # Cases 2-3: u is an initiator (real nodes, k >= 1). The
        # children's nearest initiator ancestor is u itself — their anc
        # slot w — so the value is one scalar per (node, k), broadcast
        # over the anc axis under the same strict comparison.
        if K > 1:
            lsv, rsv = SL[:, :, w], SR[:, :, w]
            best2 = np.full((P, K - 1), _NEG_INF)  # [rem] for rem = k - 1
            m2 = np.zeros((P, K - 1), dtype=np.int64)
            for m in range(K - 1):
                cnt = int(live[m])
                if cnt == 0:
                    break
                jext = min(K - 1 - m, int(prefix_rcap[cnt - 1]) + 1)
                if jext <= 0:
                    continue
                cand2 = (1.0 + lsv[:cnt, m])[:, None] + rsv[:cnt, :jext]
                seg = best2[:cnt, m : m + jext]
                mseg = m2[:cnt, m : m + jext]
                better2 = cand2 > seg
                np.copyto(seg, cand2, where=better2)
                np.copyto(mseg, np.int64(m), where=better2)
            d2 = ((m2 + m2) | 1).astype(np.int32)
            rows = S[:, 1:]
            drows = D[:, 1:]
            beat = (best2[:, :, None] > rows) & real[:, None, None]
            np.copyto(drows, np.broadcast_to(d2[:, :, None], drows.shape), where=beat)
            np.copyto(
                rows, np.broadcast_to(best2[:, :, None], rows.shape), where=beat
            )

        for i, p in enumerate(members):
            dec[p] = D[i, 1:]
        prev_S = stack

    root_slot = level_slot[ct.root_pos]
    kroot = min(cap, ct.num_real)
    kernel._root_scores = [float(x) for x in S[root_slot, : kroot + 1, 0]]
    kernel._dec = dec
    kernel._cap = cap
    kernel.memo_states = int(
        ((np.minimum(real_size, cap) + 1) * (depth + 1)).sum()
    )
