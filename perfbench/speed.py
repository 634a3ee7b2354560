"""Machine-speed calibration for timed intervals.

The machines this benchmark runs on are shared: on a 2-vCPU Intel Xeon a fixed
loop took anywhere from 15 to 24 ms within one 40-second window, and one
rank-sweep query took between 0.47 and 0.93 s in twelve back-to-back
repetitions.  Reported times are therefore scaled to a reference speed.

A short fixed pure-Python loop (the *probe*) is timed around every interval
and, through a CPU-time timer signal, every PERIOD_S inside it.  An
interval's scaled time is its raw time, less the time its probes took,
multiplied by the mean of REFERENCE_S / probe time over its probes.  The
probe does not call the program under test, so a change to the program
moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.0001  # the probe's time at reference speed
PERIOD_S = 0.005  # CPU time between probes inside an interval
EDGE_PROBES = 3  # probes run at each end of an interval


def _probe_loop() -> int:
    # Set membership in a generator, as in the semigroup code, and small
    # dicts and strings, as in argument parsing and rendering.
    gaps = tuple(range(1, 40, 3))
    total = 0
    for i in range(12):
        members = frozenset(gaps[: i % 12 + 1])
        total += sum(1 for x in range(40) if x not in members)
        names = {f"--x{g}": g for g in gaps}
        total += len(",".join(names))
    return total


def _probe() -> float:
    t0 = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - t0


def edge() -> list[float]:
    """The probes run at one end of an interval."""
    return [_probe() for _ in range(EDGE_PROBES)]


class Clock:
    """Times intervals at reference speed, probing inside them once started."""

    def __init__(self):
        self._inside: list[float] = []  # probe times since the interval began

    def _tick(self, signum, frame):
        self._inside.append(_probe())

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def measure(self, fn, before: list[float]):
        """Run fn; ``before`` are the probes just ahead of it.  Returns
        (raw seconds, scaled seconds, probes just after it, fn's result)."""
        self._inside = []
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        inside = self._inside
        self._inside = []
        after = edge()
        work = max(raw - sum(inside), 0.0)
        return raw, work * factor(before + inside + after), after, result


def factor(probes: list[float]) -> float:
    """Mean speed relative to reference over the probes, ignoring probes
    that took over twice the median (an interrupt landed in them)."""
    cut = 2 * statistics.median(probes)
    return statistics.fmean(REFERENCE_S / p for p in probes if p <= cut)
