"""How fast the CPU under a repetition runs, sampled while it runs.

On a shared virtual machine the speed of one vCPU wanders: a fixed
pure-Python loop can take 0.24 s in one minute and 0.40 s in the next,
and the two vCPUs wander independently.  A wall time alone then reports
the spell as much as the program.  `SpeedProbe` pins the process to one
CPU and, from a daemon thread, runs a short fixed kernel (a BFS over a
fixed graph, the same kind of interpreter work as `gso`) every PERIOD
seconds while the program runs.  Each sample holds the GIL, so the
program stands still meanwhile; `busy_s` is the total, which the caller
subtracts from its wall time.  `factor` is the mean over samples of the
reference duration of the kernel divided by the sample: below 1 in a
slow spell.  Samples are evenly spaced in time, so multiplying the
program's own time by it adds up the work done in each interval at the
speed measured there: the time the repetition would have taken on a CPU
running at the reference speed throughout.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import threading
import time

PERIOD = 0.1
# typical kernel duration on a 2-vCPU Intel Xeon VM, Python 3.11
REFERENCE_S = 0.0007
_SWITCH_S = 0.05  # long enough that a sample is never interrupted by the GIL

_N = 48
_ADJ = tuple(tuple(sorted({(i * 7 + d) % _N for d in (1, 5, 11)} - {i})) for i in range(_N))


def kernel() -> int:
    """BFS from every vertex of a fixed graph; returns the sum of distances."""
    total = 0
    for src in range(_N):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in _ADJ[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    return total


def sample() -> float:
    """Duration of one run of the kernel."""
    # a collection started by the kernel's allocations would walk the
    # program's heap and charge it to the sample
    collect = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    if collect:
        gc.enable()
    return t1 - t0


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        sys.setswitchinterval(_SWITCH_S)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            self.samples.append(sample())

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    @property
    def factor(self) -> float:
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
