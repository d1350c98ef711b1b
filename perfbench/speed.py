"""Machine-speed probe for steadier timings on a shared machine.

The benchmark runs on a small shared machine whose speed drifts by 10 to
30 % over seconds and minutes, as neighbours load the cores.  A timer signal
interrupts the workload every ``INTERVAL_S`` seconds and runs a fixed
pure-Python probe that does the same kind of work as the package (a
recursive generator assembling small frozen objects).  Each round's timings
are read from :meth:`SpeedProbe.clock`, which runs at the reference speed:
real time divided by the median of the latest probe times over
``REFERENCE_S``, with the time spent in the probe left out.

The probe belongs to the benchmark, not to partmaps: change ``_probe`` or
``REFERENCE_S`` only together with a fresh baseline.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.1
# median probe time on the reference machine (2 vCPUs, Python 3.11.7)
REFERENCE_S = 0.0033


@dataclass(frozen=True)
class _Cell:
    images: tuple


def _probe() -> int:
    """Assemble all maps of 6 points that keep {0,1,2} and {3,4} together,
    stopping after 2000 of them."""
    block = (0, 0, 0, 1, 1, 2)
    members = (0, 1, 2), (3, 4), (5,)
    images = [0] * 6
    chosen = [-1, -1, -1]
    found = []

    def rec(x):
        if x == 6:
            found.append(_Cell(tuple(images)))
            return
        b = block[x]
        targets = range(6) if chosen[b] == -1 else members[chosen[b]]
        for v in targets:
            first = chosen[b] == -1
            if first:
                chosen[b] = block[v]
            images[x] = v
            rec(x + 1)
            if first:
                chosen[b] = -1
            if len(found) >= 2000:
                return

    rec(0)
    return len(found)


class SpeedProbe:
    """Runs the probe on a timer signal and keeps a clock at reference speed.

    The clock advances by real time divided by the current speed factor,
    the median of the last ``WINDOW`` probe times over ``REFERENCE_S``, and
    stands still while the probe runs.  Any interval read from it is in
    seconds at the reference speed, whether it is a whole round or one call.
    """

    WINDOW = 5

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._rate = 1.0
        self._reference = 0.0  # reference seconds up to _mark
        self._mark = 0.0  # perf_counter reading where the current rate began
        self._previous = None

    def _sample(self) -> float:
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._reference += (start - self._mark) / self._rate
        self._mark = end
        self._rate = statistics.median(self.samples[-self.WINDOW :]) / REFERENCE_S
        return end

    def _tick(self, signum, frame) -> None:
        self._sample()

    def clock(self) -> float:
        """Seconds at the reference speed, without the time spent probing."""
        return self._reference + (time.perf_counter() - self._mark) / self._rate

    def factor(self) -> float:
        """Median probe time over the reference: above 1 is slower."""
        return statistics.median(self.samples) / REFERENCE_S

    def __enter__(self) -> "SpeedProbe":
        self._mark = time.perf_counter()
        for _ in range(self.WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
