"""Timings corrected for the speed of a shared host.

On a host shared with other tenants the same pure-Python job can run 1.5x
slower from one second to the next, with its CPU time equal to its wall
time: the CPU itself runs slower, so neither CPU time nor medians over a
run remove it.  A HostClock measures that speed while the program runs.
Every INTERVAL_S an interval timer runs a fixed probe (a few small pieces
of arithmetic, independent of quadrikit) between two bytecodes of the
program, and a probe also runs just before and just after each timed
region.  A region's time in reference seconds is its wall time, less the
probes inside it, scaled by PROBE_NOMINAL_S over the mean probe time
across the region: the time the region would take on a host where the
probe takes PROBE_NOMINAL_S.  A change to the program moves it exactly as it moves
the wall time; a change in host speed moves the probe with it.
"""

import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.025
PROBE_NOMINAL_S = 0.0007  # the probe's time on a calm 2-vCPU test host

# fixed sparse polynomials, exponent tuple -> integer coefficient
_A = {(i, j, 0): i - j + 1 for i in range(6) for j in range(5)}
_B = {(0, j, k): 123456789123 * (j * k + 3) for j in range(4) for k in range(4)}


def _probe_work():
    """Three kinds of interpreter work, each like some of the program's:
    a sparse polynomial product on dicts with big-integer coefficients, a
    run of Fraction arithmetic, and a plain dict loop.  Hosts slow these
    down by different factors; their sum tracks every workload better
    than any one of them does."""
    out = {}
    for (a0, a1, a2), ca in _A.items():
        for (b0, b1, b2), cb in _B.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    x = Fraction(1, 3)
    for i in range(1, 25):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    d = {}
    for i in range(1500):
        k = i % 97
        d[k] = d.get(k, 0) + i * 3
    return out, x, d


@dataclass(frozen=True)
class Mark:
    start: float
    sample: int  # index of the probe taken at the start
    probe_s: float  # probe time spent before the start


class HostClock:
    """Use as a context manager; the interval timer runs inside it."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.probes = []  # seconds per probe, in time order
        self.probe_s = 0.0
        self._busy = False
        self._old_handler = None

    def probe(self):
        if self._busy:  # the timer fired during an explicit probe
            return
        self._busy = True
        start = perf_counter()
        _probe_work()
        seconds = perf_counter() - start
        self.probes.append(seconds)
        self.probe_s += seconds
        self._busy = False

    def _on_timer(self, signum, frame):
        self.probe()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def mark(self):
        self.probe()
        return Mark(perf_counter(), len(self.probes) - 1, self.probe_s)

    def since(self, mark):
        """(wall seconds, reference seconds, probe seconds) from `mark` to
        now; the first two leave out the probes run in between."""
        end = perf_counter()
        probe_s = self.probe_s - mark.probe_s
        raw = end - mark.start - probe_s
        self.probe()
        speed = statistics.fmean(self.probes[mark.sample:])
        return raw, raw * PROBE_NOMINAL_S / speed, probe_s
