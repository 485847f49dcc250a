#!/usr/bin/env python3
"""The repository benchmark: one workload per run, against the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload detect-epinions --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: ``detect-epinions``, ``budget-slashdot``, ``serve-warm``,
``stream-churn`` (see ``workloads.py`` and ``README.md``). ``all`` runs
each workload in its own process, so every peak-RSS reading is that
workload's alone. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run (spans are written under
``.perfbench/``). ``--tiny`` shrinks every input for the self-tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the environment, the input digests, the host-speed probes
and a table of every metric with its unit and sample count (timings
also show their plain wall-time value; see ``hostspeed.py``). The exit
code is 1 when an operation failed or an output check did not hold, 2
when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("detect-epinions", "budget-slashdot", "serve-warm", "stream-churn")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-tests)")
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of every file under ``src/``: identifies the measured code
    where the checkout carries no git metadata."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    from repro.kernel.backends import resolve_backend

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_digest": source_digest(),
        "loadavg": os.getloadavg(),
        "backend": resolve_backend(None).name,
    }


def host_speed(speeds: list) -> dict:
    """The host's speed over the run, from every probe and sample, each
    as the reference time over the measured one (1.0: the host ran at
    the reference speed, so rescaled and plain wall times agree)."""
    if not speeds:
        return {"probes": 0}
    return {
        "probes": len(speeds),
        "speed_median": round(statistics.median(speeds), 4),
        "speed_min": round(min(speeds), 4),
        "speed_max": round(max(speeds), 4),
    }


def run_one(args: argparse.Namespace) -> int:
    import hostspeed
    import workloads

    env = environment(args.seed)
    # The measuring process stays on one CPU, so the host-speed probes
    # run where the measured work runs (serve-warm's server gets the
    # other one).
    env["cpus"] = hostspeed.cpus()
    hostspeed.pin(env["cpus"][0])
    options = workloads.Options(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        size=workloads.TINY if args.tiny else workloads.FULL, cpus=env["cpus"],
    )
    outcome = workloads.WORKLOADS[args.workload](options)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print("# env " + json.dumps(env, sort_keys=True))
    print("# inputs " + json.dumps(outcome.inputs, sort_keys=True))
    print("# host " + json.dumps(host_speed(outcome.speeds), sort_keys=True))
    for message in outcome.failures:
        print(f"# FAILED {message}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed} error_rate={error_rate:g}")
    for name, unit in units.items():
        value, samples = outcome.metrics[name]
        wall = f" wall={outcome.wall[name]:.6g}" if name in outcome.wall else ""
        print(f"  {name:32s} {value:14.6g} {unit:6s} samples={samples}{wall}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# FAILED {name}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; "
                         "run from the root of a full checkout\n")
        return 2
    # On SIGTERM, unwind: the serve workload's server process is stopped
    # on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.pop("REPRO_KERNEL_BACKEND", None)  # measure the default path
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
