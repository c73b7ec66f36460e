"""How fast this machine runs Python right now, measured on a fixed kernel.

On a shared machine the speed of the same code drifts by up to 2x over
seconds to minutes, and a whole run can fall into a slow period.  The closed
loop therefore times a fixed reference kernel between operations, at least
every SAMPLE_EVERY seconds of operation time, and scales each operation's
wall time by NOMINAL_S over the mean of the two reference times around it.
A scaled time reads as the operation's wall time on a machine that runs the
kernel in NOMINAL_S, so the end-to-end metrics compare two commits measured
at different moments.  The kernel is benchmark code, the same on both
commits, and does not call propcalc.

The kernel mixes what propcalc spends its time on: exact Fraction
elimination (linalg), tuple keys in dicts (graphs, profiles) and JSON text
(formats).
"""

import gc
import json
import time
from fractions import Fraction

# the kernel's time on the 2-vCPU VM (Python 3.11.7) in its fast periods
NOMINAL_S = 0.0027
SAMPLE_EVERY = 0.1


def kernel():
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts = {}
    for i in range(2000):
        key = (i % 97, i % 89, "c")
        counts[key] = counts.get(key, 0) + i
    return json.dumps(sorted(counts.items())[:200])


class Speed:
    """Reference samples taken between operations, and the operations' raw times."""

    def __init__(self):
        self.samples = []  # seconds per kernel run
        self.times = []  # (raw seconds, index of the last sample before the operation)
        self.since = SAMPLE_EVERY

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()
        self.since = 0.0

    def before_op(self):
        if self.since >= SAMPLE_EVERY:
            self.sample()

    def after_op(self, seconds):
        self.times.append((seconds, len(self.samples) - 1))
        self.since += seconds

    def scaled(self):
        """Each operation's time scaled to the nominal speed."""
        if self.since > 0.0:
            self.sample()
        out = []
        for seconds, k in self.times:
            around = (self.samples[k] + self.samples[k + 1]) / 2.0
            out.append(seconds * NOMINAL_S / around)
        return out

    def raw(self):
        return [seconds for seconds, _ in self.times]
