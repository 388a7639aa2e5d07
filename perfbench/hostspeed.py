"""Host-speed probe: times a fixed pure-Python kernel through a run.

The benchmark runs on a few cores of a shared host whose single-core speed
moves by up to 1.5x between phases that last minutes.  Every part of pfield,
and the interpreter's start-up, slows down together with it, so a run's wall
times say as much about the host's phase as about the program.  The probe
follows the host: a kernel that touches none of pfield (integer loop, float
math, `repr` and joins, a str-keyed dict: the mix of the CLI's hot paths) is
timed between operations, outside the timed region, at most every
`EVERY_S`.  The mean of its times over the run, over `REFERENCE_S`, is the
run's slowdown against the reference host (2 vCPU Xeon, Python 3.11.7, in an
ordinary phase).  Dividing a run's seconds by it gives reference-host seconds.

The probe is independent of pfield, so a change to pfield moves the
normalised figures in full.  The kernel must not change: that would move
every normalised figure.
"""

from __future__ import annotations

import math
import statistics
import time

EVERY_S = 0.3
REFERENCE_S = 0.018  # median kernel time on the reference host


def _kernel() -> None:
    total = 0
    for i in range(60_000):
        total += i * i
    values = [math.sin(i * 1e-3) * 1e-9 for i in range(8_000)]
    ",".join(map(repr, values))
    {str(i): i * 0.5 for i in range(8_000)}


class HostProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Time the kernel once, unless it ran less than `EVERY_S` ago."""
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        start = time.perf_counter()
        _kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def slowdown(self) -> float:
        """Host seconds per reference-host second over the run."""
        return self.mean_s() / REFERENCE_S
