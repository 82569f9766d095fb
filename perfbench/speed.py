"""Workload time at a fixed nominal host speed.

The benchmark runs on a few vCPUs of a shared host whose speed wanders: a
fixed compute loop takes from 0.7 to 1.3 times its usual time over a few
seconds, and the level drifts by up to 1.8x over 90 minutes.  Raw wall time of
the same code then spreads more between runs than any bound a change could
be judged by.

A probe, a fixed piece of interpreter and numpy work like the library's own,
is therefore timed at marks around the workload: after import, between
steps, and when the last file is written.  The time of each segment between
two marks is scaled by ``NOMINAL_PROBE_S`` over the mean probe time at its
two ends.  The sum is the workload's time in seconds at the host speed at
which one probe takes ``NOMINAL_PROBE_S``.  The raw times are kept beside
the scaled ones, and ``workloads.PROBE_SCALED`` names the workloads whose
times are reported scaled.  Probe time is never part of a segment.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

# probe time at the nominal speed; the scaled seconds are seconds at it
NOMINAL_PROBE_S = 0.015
# probe samples per mark, of which the median is taken
PROBE_SAMPLES = 3


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _probe_once(np) -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 40000):
        acc += math.log(i) if i & 1 else -math.sqrt(i)
    x = np.linspace(0.0, 8.0, 1 << 15)
    for _ in range(6):
        acc += float(np.fft.rfft(np.exp(-x * x))[1].real)
    if acc != acc:  # keeps the work observable; never true
        raise ArithmeticError("probe")
    return time.perf_counter() - t0


def probe() -> float:
    """Median time of a few probe samples, in seconds."""
    import numpy as np

    return statistics.median(_probe_once(np) for _ in range(PROBE_SAMPLES))


class SpeedClock:
    """Segments of wall and CPU time between marks, each with the probe
    times at its two ends."""

    def __init__(self, first_probe_s: float):
        self.segments: list[dict] = []
        self._probe = first_probe_s
        self._wall0, self._cpu0 = time.perf_counter(), cpu_s()

    def mark(self) -> None:
        wall, cpu = time.perf_counter() - self._wall0, cpu_s() - self._cpu0
        after = probe()
        self.segments.append({"wall_s": wall, "cpu_s": cpu, "probe_s": (self._probe, after)})
        self._probe = after
        self._wall0, self._cpu0 = time.perf_counter(), cpu_s()

    def totals(self) -> dict:
        """Raw and scaled wall and CPU time over every closed segment."""
        out = {"wall_s": 0.0, "cpu_s": 0.0, "wall_nominal_s": 0.0, "cpu_nominal_s": 0.0}
        for seg in self.segments:
            scale = NOMINAL_PROBE_S / (0.5 * sum(seg["probe_s"]))
            for key in ("wall_s", "cpu_s"):
                out[key] += seg[key]
                out[key.replace("_s", "_nominal_s")] += seg[key] * scale
        return out
