"""A probe of the host's speed, to correct timings for it.

On a shared host the speed a process gets drifts by up to a factor of two
over seconds and minutes, as other tenants come and go, and no repetition
within a run of tens of seconds removes that.  So while calls are timed, an
interval timer runs a fixed piece of reference work every INTERVAL_S and
records how long it took.  The reference work is exact ``Fraction`` and
tuple/set arithmetic, the kind of pure-Python work ckstab does, and lives
in the benchmark, so no change to ckstab changes it.  A call's time is then
scaled to the reference speed: multiplied by REFERENCE_S over the mean
duration of the reference work while the call ran.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
# The reference work's usual duration on the machine where the bounds were
# set (2 vCPUs, Python 3.11): a corrected time reads as the time the call
# takes there.  It is a fixed unit, so corrected times compare across runs.
REFERENCE_S = 330e-6
# A call that saw fewer probes than this is judged by the last RECENT probes.
RECENT = 5


def reference_work() -> int:
    total = Fraction(0)
    seen = set()
    for i in range(1, 30):
        f = Fraction(i, i + 1)
        total += f * f - Fraction(1, i)
        seen.add((i % 7, total.numerator % 11))
    return len(seen)


class Probe:
    """Install with ``with probe:``; it can be installed again."""

    def __init__(self):
        self.times: list[float] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_work()
        self.times.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def timed(self, fn, *args):
        """(fn's result, its time scaled to the reference speed).  The time
        the probe itself took during the call is left out."""
        k = len(self.times)
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        during = self.times[k:]
        seen = during if len(during) >= RECENT else self.times[-RECENT:]
        if not seen:  # no probe yet: time one now
            self._tick(None, None)
            seen = self.times[-1:]
        net = elapsed - sum(during)
        return result, net * REFERENCE_S * len(seen) / sum(seen)
