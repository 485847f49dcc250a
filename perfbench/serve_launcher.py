"""Run the serve CLI's ``main`` in this process, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] [--cpu N] -- [repro-serve args]

With ``--trace-out`` the layer wrappers (library stages plus the wire
codec) are installed before the server starts, and the recorded spans
are written to FILE after it has drained and exited (SIGTERM).
``REPRO_KERNEL_BACKEND`` is cleared so the server runs the default path.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--cpu", type=int, default=None, help="pin the server to this CPU")
    args = parser.parse_args(argv[:split])
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.serve import cli

    tracer = None
    if args.trace_out:
        from spans import LIBRARY_TARGETS, SERVE_TARGETS, Tracer

        tracer = Tracer().install(LIBRARY_TARGETS + SERVE_TARGETS)
    try:
        return cli.main(argv[split + 1:])
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
