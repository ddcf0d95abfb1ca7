"""Time a block of work and scale it to a reference host speed.

The host the benchmark runs on is a shared 2-core machine whose CPU speed
switches between states about 1.8x apart, for seconds at a time and
sometimes for minutes (see NOTES.md). To compare code rather than host
states, a fixed calibration unit (a plain float loop, no lrkit code) is
timed just before and just after the block and, from a SIGALRM interval
timer, every ``PERIOD_S`` inside it. The block's wall time, less the time
those units took inside it, is scaled by ``UNIT_REF_S / median(unit
times)``: it reads as the block's time at the speed where one unit takes
``UNIT_REF_S``.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

UNIT_REF_S = 1.5e-4  # one unit at the fast state of the host the benchmark was written on
PERIOD_S = 0.05
EDGE_UNITS = 4

def unit_s() -> float:
    """Time of one calibration unit: a plain float loop.

    It allocates nothing and touches only a few cache lines, so its time
    follows the host's speed and hardly the heap or cache state the timed
    block leaves behind.
    """
    t0 = perf_counter()
    x = 0.5
    for _ in range(3000):
        x = x * 0.999 + 1.0
    return perf_counter() - t0


class Timed:
    """Context manager giving ``seconds`` (wall) and ``scaled`` (reference speed) of a block."""

    def __enter__(self) -> "Timed":
        self.units = [unit_s() for _ in range(EDGE_UNITS)]
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.units.append(unit_s())
        self.inside += perf_counter() - t0

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self.inside
        self.units.extend(unit_s() for _ in range(EDGE_UNITS))
        self.scaled = self.seconds * UNIT_REF_S / statistics.median(self.units)
        return False
