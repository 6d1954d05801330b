"""The machine's speed, measured while the benchmark runs.

On a shared virtual machine the speed of a vCPU changes by up to two times
within seconds, because the host's other tenants come and go; the guest
sees neither steal time nor a change in its CPU time.  That drift is larger
than any bound the benchmark could set.  So while it times, the benchmark
runs a fixed reference computation (a probe) from a SIGALRM timer, every
PROBE_EVERY_S of wall time, also in the middle of a job, and reports each
timed interval in nominal seconds: its wall time, less the probes that ran
inside it, divided by the mean probe time around it over NOMINAL_S.

The probe is exact arithmetic of the same kind padicasai spends its time on
(a product of Laurent polynomials with Fraction coefficients held in a
dict), written here so that no change to padicasai can change it.  On the
2-vCPU machine the bounds were set on, a slow phase made the probe 1.8 times
slower and padicasai's jobs 1.65 to 1.85 times slower.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# Median probe time on the machine the bounds were set on, in a fast phase.
NOMINAL_S = 0.0005
PROBE_EVERY_S = 0.025
# An interval is scaled by the probes that started within this much of it,
# at least MIN_PROBES of them (the nearest ones when fewer fall in).
WINDOW_S = 0.05
MIN_PROBES = 3

_A = [((i, 0), Fraction(i + 1, 2)) for i in range(-4, 5)]
_B = [((i, -j), Fraction(3 * i + j + 1, i * i + 1)) for i in range(-3, 4) for j in range(2)]


def reference_work() -> Fraction:
    """The probe: one product of two fixed bivariate Laurent polynomials."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in _A:
        for (i2, j2), c2 in _B:
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return sum(out.values())


class SpeedLog:
    """Probe start times and durations, in the order they ran."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        reference_work()
        self.took.append(time.perf_counter() - t)
        self.at.append(t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, start: float, end: float) -> float:
        """The interval [start, end] in nominal seconds."""
        inside = slice(bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end))
        net = end - start - sum(self.took[inside])
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_left(self.at, end + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        slowness = sum(self.took[lo:hi]) / (hi - lo) / NOMINAL_S
        return net / slowness
