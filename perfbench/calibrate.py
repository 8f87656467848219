"""Speed of the machine over the run, from a fixed reference loop.

The shared machines this benchmark runs on change speed by up to half, in
bursts of a fraction of a second and in spells of minutes, so the same job
can take 0.3 s or 0.6 s.  A `Speedometer` times a short reference loop
between jobs, and the benchmark reports each time scaled to the reference
speed: raw time x (NOMINAL_UNIT_S / reference loop time measured around
the job) ** EXPONENT.  The loop is pure-Python exact arithmetic over
dicts, the kind of work neron does, and shares no code with neron, so a
change to neron moves the scaled times and never the factor.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Time of one reference unit at the reference speed; scaled times are
# seconds on a machine that runs the unit this fast.
NOMINAL_UNIT_S = 0.0016
# neron's times follow the reference loop's at this power: between slow and
# fast spells of a 2-vCPU KVM guest, the loop's time changed by a factor f
# and neron's by about f ** 0.7 to f ** 0.8.
EXPONENT = 0.8
UNITS = 5            # least reference units per speed sample
SHARE = 0.1          # a sample lasts this share of the time since the last
INTERVAL_S = 0.2     # least time between two samples
NEAR_S = 0.5         # samples within NEAR_S, or the interval's own length,
                     # of a timed interval set its speed


def reference_unit():
    """Sparse polynomial powers with Fraction coefficients."""
    p = {(i, 6 - i, i % 3): Fraction(i + 1, i + 2) for i in range(7)}
    acc = {(0, 0, 0): Fraction(1)}
    for _ in range(4):
        out = {}
        for ma, ca in acc.items():
            for mb, cb in p.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                v = out.get(m, 0) + ca * cb
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        acc = out
    return max(acc, key=lambda m: (sum(m), m))


class Speedometer:
    """Speed samples over a run: (time taken, NOMINAL_UNIT_S / unit time)."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Run reference units for SHARE of the time since the last sample,
        and at least UNITS of them; record their median speed."""
        start = time.perf_counter()
        least = SHARE * (start - self.samples[-1][0]) if self.samples else 0.0
        times = []
        while len(times) < UNITS or time.perf_counter() - start < least:
            t0 = time.perf_counter()
            reference_unit()
            times.append(time.perf_counter() - t0)
        self.samples.append((time.perf_counter(), NOMINAL_UNIT_S / statistics.median(times)))

    def tick(self):
        """Sample if the last sample is INTERVAL_S old."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale factor for a time measured over [start, end]: the median
        speed sampled near it, or at the nearest sample when none is that
        close, to the power EXPONENT."""
        margin = max(NEAR_S, end - start)
        near = [s for t, s in self.samples if start - margin <= t <= end + margin]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.median(near) ** EXPONENT
