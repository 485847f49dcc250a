#!/usr/bin/env python
"""Benchmark the compiled TreeDP kernel against the recursive solver.

Builds paper-scale random cascade trees (general fan-out, random
states), binarises each, and runs the Sec. III-D k-ISOMIT-BT budget
sweep (``k = 1..cap``) two ways:

1. **identity** — asserts the compiled kernel's whole curve (``score``
   and ``initiators`` per budget) is **bit-identical** to the recursive
   dict-memo solver (the test oracle ``tests/oracles/tree_dp_memo.py``),
   exiting non-zero on any mismatch;
2. **timing** — compares the recursive solver's incremental sweep
   (shared memo across budgets) against the kernel's single-sweep
   ``solve_curve``. The n=2000 configuration is the gated headline: the
   kernel must be ≥ 3x faster end-to-end.

Results are written as JSON (default ``BENCH_tree_dp.json`` in the
current directory). Run with:

    PYTHONPATH=src:. python benchmarks/bench_tree_dp.py

(the repo root on the path makes the ``tests.oracles`` package importable).

It also checks RID's per-tree k scan: the greedy and exhaustive
selections of :func:`repro.pipeline.stages.greedy_tree_selection`, whose
kernel sweep is sized up front from the β-penalised count, must equal a
plain budget-by-budget scan on a fresh kernel in every field, and each
tree must be swept exactly once (the ``rid.tree_dp.sweeps`` counter).

``--tiny`` runs a seconds-scale smoke configuration meant for CI: full
identity checks, no assertions about speed (CI boxes are noisy). It
needs no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.binarize import binarize_cascade_tree
from repro.core.rid import RIDConfig
from repro.core.tree_dp import KIsomitBTSolver
from repro.graphs.generators.trees import random_general_tree
from repro.kernel.tree_dp import TreeDPKernel
from repro.obs import MetricsRecorder
from repro.pipeline.stages import greedy_tree_selection
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.tree_dp_memo import RecursiveKIsomitBTSolver


def build_tree(n: int, seed: int):
    """A random ``n``-node general cascade tree with random states."""
    tree = random_general_tree(n, max_children=3, rng=seed)
    rng = spawn_rng(seed, "bench-tree-dp-states")
    for node in tree.nodes():
        tree.set_state(
            node, NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
        )
    return tree


def reference_curve(binary, cap):
    """The recursive solver's incremental budget sweep (shared memo)."""
    solver = RecursiveKIsomitBTSolver(binary)
    return [solver.solve(k) for k in range(1, cap + 1)]


def compiled_curve(binary, cap):
    """The kernel's single-sweep curve (includes tree compilation)."""
    return KIsomitBTSolver(binary).solve_curve(cap)


def check_identity(binary, cap, label: str) -> list:
    """Compiled vs recursive over the whole curve; returns failure strings."""
    failures = []
    reference = reference_curve(binary, cap)
    compiled = compiled_curve(binary, cap)
    for ref, ker in zip(reference, compiled):
        if ker.score != ref.score:
            failures.append(
                f"{label} k={ref.k}: score {ker.score!r} != reference {ref.score!r}"
            )
        if ker.initiators != ref.initiators:
            failures.append(f"{label} k={ref.k}: initiators differ from reference")
    return failures


#: Penalties the selection check scans with (the paper's 0.1 and larger).
SELECTION_BETAS = (0.1, 0.5, 1.0)


def plain_selection(config, binary):
    """The per-tree k scan solving budget by budget on a fresh kernel
    (no up-front sizing): ``(best result, its objective, k scanned)``."""
    kernel = TreeDPKernel(binary)
    max_k = binary.num_real
    if config.max_k_per_tree is not None:
        max_k = min(max_k, config.max_k_per_tree)
    best, best_objective, scanned = None, float("-inf"), 0
    for k in range(1, max_k + 1):
        scanned += 1
        result = kernel.solve(k)
        objective = result.score - (k - 1) * config.beta
        if objective > best_objective:
            best, best_objective = result, objective
        elif config.k_strategy == "greedy":
            break
    return best, best_objective, scanned


def check_selections(tree, binary, max_k, label: str) -> list:
    """Sized vs plain greedy/exhaustive selections, and one sweep per tree."""
    failures = []
    for strategy in ("greedy", "exhaustive"):
        for beta in SELECTION_BETAS:
            config = RIDConfig(
                alpha=3.0, beta=beta, k_strategy=strategy, max_k_per_tree=max_k
            )
            case = f"{label} {strategy} beta={beta}"
            recorder = MetricsRecorder()
            sized = greedy_tree_selection(config, tree, recorder)
            best, best_objective, scanned = plain_selection(config, binary)
            if (
                sized.k != best.k
                or sized.score != best.score
                or sized.penalized_objective != best_objective
                or sized.initiators != best.initiators
                or sized.scanned_k != scanned
                or sized.tree_size != binary.num_real
            ):
                failures.append(f"{case}: selection differs from the plain k scan")
            sweeps = recorder.metrics.counters.get("rid.tree_dp.sweeps")
            if sweeps != 1:
                failures.append(f"{case}: tree swept {sweeps} times, expected 1")
    return failures


def bench(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI smoke: identity only")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[200, 2000, 10000]
    )
    parser.add_argument("--max-k", type=int, default=20, help="budget sweep cap")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_tree_dp.json")
    args = parser.parse_args(argv)

    if args.tiny:
        args.sizes, args.max_k, args.repeats = [40, 120], 8, 1

    report = {
        "max_k": args.max_k,
        "seed": args.seed,
        "trees": [],
        "note": (
            "budget sweep k=1..cap per tree; reference = recursive dict-memo "
            "solver with memo shared across budgets, compiled = flat-array "
            "kernel solve_curve (one post-order sweep, compile included)"
        ),
    }

    failed = False
    for n in args.sizes:
        tree = build_tree(n, args.seed)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        cap = min(args.max_k, binary.num_real)
        entry = {
            "n": n,
            "binary_size": binary.size(),
            "depth": binary.depth(),
            "cap": cap,
        }

        failures = check_identity(binary, cap, f"n={n}")
        # Full-size trees scan under the curve cap: an uncapped
        # exhaustive scan of a 10k-node tree is quadratic in its size.
        failures += check_selections(tree, binary, None if args.tiny else cap, f"n={n}")
        if failures:
            for failure in failures:
                print(f"IDENTITY FAILURE: {failure}", file=sys.stderr)
            failed = True
            continue
        print(
            f"n={n}: identity OK (curve k=1..{cap} bit-identical; sized greedy/"
            "exhaustive selections equal the plain k scan, one sweep each)"
        )

        if not args.tiny:
            reference_s = bench(lambda: reference_curve(binary, cap), args.repeats)
            compiled_s = bench(lambda: compiled_curve(binary, cap), args.repeats)
            speedup = reference_s / compiled_s
            entry.update(
                {
                    "reference_s": round(reference_s, 6),
                    "compiled_s": round(compiled_s, 6),
                    "speedup": round(speedup, 3),
                }
            )
            print(
                f"n={n}: reference {reference_s:.4f}s, compiled {compiled_s:.4f}s "
                f"-> speedup {speedup:.2f}x"
            )
            # The acceptance gate targets the n=2000 configuration.
            if n == 2000 and speedup < 3.0:
                print(
                    f"SPEEDUP FAILURE: n=2000 {speedup:.2f}x < 3x", file=sys.stderr
                )
                failed = True
        report["trees"].append(entry)

    if failed:
        return 1
    report["identity"] = "ok"
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
