"""Wall times rescaled to a fixed host speed.

The benchmark runs on a shared host whose speed drifts: the same
pure-Python code runs up to 2x slower in phases lasting from under a
second to tens of seconds, so the spread of plain wall times between
runs is a property of the host, not of the code. Every timing the
benchmark reports is therefore rescaled by how fast a fixed calibration
loop (owned by the benchmark, never by the measured program) ran at the
same time, on the same CPU:

    rescaled = wall * reference / calibration

The result is the wall time the interval would have taken on a host on
which the loop takes its reference time. A change to the program that
makes an operation 10% slower makes its rescaled time 10% larger; a
slow phase of the host makes both the operation and the loop slower
and cancels out.

Two ways to time the loop:

* :class:`Sampler` runs a 1 ms loop every 50 ms in a background thread
  while in-process work runs, and rescales each interval by the samples
  taken during it. This is the default: it sees the host's phases in
  the middle of a long operation.
* :class:`Rescaler` times a longer pass (:func:`probe`) just before and
  just after each interval, on given CPUs. serve-warm uses it around
  its server phases, whose work runs on two CPUs in two processes and
  which a sampler thread in the client would slow down.

The host's virtual CPUs drift independently of each other (a loop on
the other CPU tracked an operation worse than no loop at all), so the
measuring process is pinned to one CPU (:func:`pin`) and a loop only
stands for the CPU it ran on.

Measured on a 2-CPU Xeon VM, the spread (IQR/median) of single
Epinions detect calls was 0.034 plain, 0.048-0.057 rescaled by probes
around each call and 0.020 rescaled by samples; on Slashdot, in a
noisier hour, 0.30, 0.13-0.15 and 0.09-0.10.

A :func:`probe` pass is two loops of about equal time: integer
arithmetic, which slows down less than the program in the host's slow
phases, and a breadth-first traversal of a fixed 10,000-node
dict-of-tuples graph, which slows down a little more. With both, calls
made in the slower half of the probes read 1.03x those made in the
faster half (1.07-1.09x with the arithmetic alone).
"""

from __future__ import annotations

import bisect
import os
import random
import threading
import time
from typing import List, Sequence, Tuple

#: One pass takes about this long on a 2-CPU Xeon VM at 2.1 GHz under
#: CPython 3.11 when the host is in a fast phase (the median of its
#: passes over one such minute; slow phases read up to 0.026 s).
REFERENCE_S = 0.012
#: Passes per probe; a probe is their mean.
PROBE_PASSES = 2
_ARITHMETIC_N = 100_000
_GRAPH_N = 10_000
_rng = random.Random(0)
#: Tuples of ints, which the cyclic GC stops tracking, so the graph
#: does not slow the program's collections.
_GRAPH = {node: tuple(_rng.randrange(_GRAPH_N) for _ in range(4)) for node in range(_GRAPH_N)}


def _arithmetic() -> int:
    total = 0
    for i in range(_ARITHMETIC_N):
        total += i * i
    return total


def _traversal() -> int:
    seen = {0}
    frontier = [0]
    order = []
    while frontier:
        following = []
        for node in frontier:
            order.append(node)
            for succ in _GRAPH[node]:
                if succ not in seen:
                    seen.add(succ)
                    following.append(succ)
        frontier = following
    depth: dict = {}
    for node in order:
        depth[node] = depth.get(_GRAPH[node][0], 0) + 1
    return len(depth)


def cpus() -> Tuple[int, int]:
    """The CPU to pin the measuring process to, and the one for a server
    process: the first and the last this process may run on (the same
    one on a 1-CPU machine).

    The speed of the host's virtual CPUs drifts independently (a probe
    loop on the other CPU tracked an operation's slowdown worse than no
    probe at all), so a probe only stands for the CPU it ran on."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def probe(on: Sequence[int] = ()) -> float:
    """Mean seconds of one calibration pass, right now: where this
    process runs, or on each CPU of ``on`` in turn (averaged)."""
    if not on:
        start = time.perf_counter()
        for _ in range(PROBE_PASSES):
            _arithmetic()
            _traversal()
        return (time.perf_counter() - start) / PROBE_PASSES
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in on:
            pin(cpu)
            times.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class Rescaler:
    """Brackets measured intervals with probes.

    Each :meth:`factor` call probes, and returns the factor that rescales
    the wall times measured since the previous probe (the one made on
    construction, or by the previous :meth:`factor` call). Construct a
    new one after unmeasured work, so a probe always sits right next to
    the interval it scales.
    """

    def __init__(self, on: Sequence[int] = ()) -> None:
        #: CPUs to probe (see :func:`probe`)
        self.on = tuple(on)
        self.before = probe(self.on)
        #: Every probe taken, for the record (seconds).
        self.probes: List[float] = [self.before]

    def speeds(self) -> List[float]:
        """Each probe's speed relative to the reference (1.0: reference)."""
        return [REFERENCE_S / p for p in self.probes]

    def factor(self) -> float:
        after = probe(self.on)
        self.probes.append(after)
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return factor


#: The sampler's probe: this many iterations of the arithmetic loop,
#: about 1 ms, well inside the interpreter's 5 ms switch interval, so
#: no other thread runs in the middle of a sample.
SAMPLE_N = 20_000
#: One sample takes about this long where one pass takes ``REFERENCE_S``.
SAMPLE_REFERENCE_S = 0.001
#: Seconds between samples.
SAMPLE_EVERY_S = 0.05
#: An interval is rescaled by the samples inside it, widened to at least
#: this many seconds around its middle.
SAMPLE_WINDOW_S = 0.5


class Sampler:
    """Samples the host's speed from a background thread while the
    measured work runs in the main one.

    Probes around an interval miss what the host does in the middle of
    it, which matters for operations of a second or more when its phases
    are shorter. A detect call of 3 s is rescaled by the mean of some 60
    samples taken while it ran.

    A sample holds the interpreter lock for about 1 ms, time the measured
    work loses; :meth:`timings` subtracts the samples' time from each
    interval. Use as a context manager.
    """

    def __init__(self) -> None:
        #: (start, seconds) of every sample, in time order
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed-sampler", daemon=True)

    def _run(self) -> None:
        while True:
            start = time.perf_counter()
            total = 0
            for i in range(SAMPLE_N):
                total += i * i
            self.samples.append((start, time.perf_counter() - start))
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        while not self.samples:  # so every interval has a sample before it
            time.sleep(0.001)
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def timings(self, intervals: Sequence[Tuple[float, float]]) -> Tuple[List[float], List[float]]:
        """Rescaled and plain times of ``(start, end)`` intervals, both
        without the samples' own time."""
        starts = [start for start, _ in self.samples]
        scaled, plain = [], []
        for start, end in intervals:
            busy = sum(
                max(0.0, min(s + d, end) - max(s, start))
                for s, d in self.samples[bisect.bisect_left(starts, start - 1.0):
                                         bisect.bisect_right(starts, end)]
            )
            half = max(end - start, SAMPLE_WINDOW_S) / 2
            middle = (start + end) / 2
            window = self.samples[bisect.bisect_left(starts, middle - half):
                                  bisect.bisect_right(starts, middle + half)]
            if not window:
                raise RuntimeError(f"no host-speed sample within {half:.2f} s of an interval")
            wall = end - start - busy
            plain.append(wall)
            scaled.append(wall * SAMPLE_REFERENCE_S / (sum(d for _, d in window) / len(window)))
        return scaled, plain

    def speeds(self) -> List[float]:
        """Each sample's speed relative to the reference (1.0: reference)."""
        return [SAMPLE_REFERENCE_S / d for _, d in self.samples]
