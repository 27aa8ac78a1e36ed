"""Host-time measurement on a shared, noisy host.

The 2-core host this benchmark was tuned on changes speed all the time:
a fixed pure-Python loop timed in 30-second windows spread by about 19%
between windows (median of each window), in sub-second bursts and in
drifts of 10-15% lasting minutes.  No statistic of raw times taken
inside one run removes the drifts.

So every CPU-bound time is measured next to a fixed calibration
workload, :class:`_Machine`, sampled between grid cells (one sample
after every :data:`CALIBRATION_EVERY` cells, outside the cells' own
time) and between phases.  A time is reported as ``seconds x
CALIBRATION_NOMINAL_S / mean calibration sample`` over the same
stretch: seconds on a host where one calibration sample takes exactly
the nominal time.  Host contention slows both alike and cancels; a
change to the program moves only the program's side.  Over six
30-second windows of warm grid passes this cut the spread of the pass
time from 6.8% (raw) to 1.2%.  The raw mean sample is reported as the
per-layer metric ``host.calibration_ms``.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, List, Sequence

#: Mean calibration sample on the reference host (2-core x86-64 VM,
#: CPython 3.11) when quiet; rescaled times read as seconds there.
CALIBRATION_NOMINAL_S = 0.005
#: Calibration samples taken at each sampling point between phases.
CALIBRATION_SAMPLES = 3
#: Inside a timed sweep, one sample after every this many cells.
CALIBRATION_EVERY = 4


class _Machine:
    """A toy discrete-event machine: the calibration workload.

    Its inner loop has the shape of the simulator's event loop (a heap
    of ``(time, priority, seq, handler, arg)`` tuples, bound-method
    handlers, attribute and list updates), so host contention slows it
    about as much as it slows the simulator.  It is benchmark code and
    shares nothing with the program, so a change to the program never
    moves it.
    """

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.regs = [0] * 64
        self.busy = 0

    def schedule(self, when: int, handler, arg: int) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (when, arg & 3, self.seq, handler, arg))

    def step(self, now: int, arg: int) -> None:
        regs = self.regs
        regs[arg & 63] = (regs[(arg + 7) & 63] + arg) & 0xFFFF
        self.busy += 1
        if self.busy < 6000:
            self.schedule(now + 1 + (arg & 7), self.step, arg * 5 + 1)

    def run(self) -> int:
        for lane in range(4):
            self.schedule(0, self.step, lane)
        heap = self.heap
        while heap:
            now, _priority, _seq, handler, arg = heapq.heappop(heap)
            handler(now, arg)
        return self.busy


def calibration_seconds(samples: int = CALIBRATION_SAMPLES) -> List[float]:
    """*samples* timings of the fixed :class:`_Machine` workload."""
    out = []
    for _ in range(samples):
        started = time.perf_counter()
        _Machine().run()
        out.append(time.perf_counter() - started)
    return out


def rescaled(seconds: float, calibration: Sequence[float]) -> float:
    """*seconds* of host time as reference seconds, given the
    calibration samples taken over the same stretch."""
    return seconds * CALIBRATION_NOMINAL_S / statistics.mean(calibration)


def timed_sweep(specs: Sequence[Dict], backend: str,
                calibration: List[float]):
    """``repro.sweep`` of *specs* on *backend*; returns ``(results,
    seconds)``, the seconds excluding the calibration samples appended
    to *calibration* after every :data:`CALIBRATION_EVERY` cells."""
    import repro

    cells = [0]
    paused = [0.0]

    def progress(_event) -> None:
        cells[0] += 1
        if cells[0] % CALIBRATION_EVERY == 0:
            began = time.perf_counter()
            calibration.extend(calibration_seconds(1))
            paused[0] += time.perf_counter() - began

    started = time.perf_counter()
    results = repro.sweep(specs, backend=backend, workers=1, progress=progress)
    return results, time.perf_counter() - started - paused[0]
