"""Host speed, gauged by timing a small fixed probe while the measured code runs.

A shared host's speed can swing twofold within seconds, with no CPU time
stolen that the guest could see. The benchmark scales its timed metrics by
the probe's slowdown against a quiet reference host, measured over the same
seconds as the work, so that such swings, which the program does not cause,
do not show as changes of the program.
"""

import math
import signal
import statistics
import time

# seconds one repetition of ``Probe`` took on a 2-vCPU Intel Xeon VM while that
# host was quiet. It fixes only the scale of the scaled metrics: a comparison
# of two commits on one host divides it out.
PROBE_REF_S = 0.002


class Probe:
    """A fixed mix of pure-Python and small-array numpy work.

    The mix follows kinnav's own: attribute access, ``math`` calls and dict
    stores, and numpy calls on 64-element arrays.
    """

    def __init__(self):
        import numpy as np

        class Point:
            __slots__ = ("x", "y")

            def __init__(self, x, y):
                self.x, self.y = x, y

        self.np = np
        self.points = [Point(i * 0.1, i * 0.2) for i in range(50)]
        self.grid = np.random.default_rng(0).random((64, 64))
        self.angles = np.linspace(0.0, 2.0 * np.pi, 64)

    def __call__(self, reps=1):
        """Seconds per repetition, over ``reps`` repetitions (about 2 ms each on a quiet host)."""
        np, points, grid = self.np, self.points, self.grid
        seen = {}
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(4000 * reps):
            p, q = points[i % 50], points[(i * 7) % 50]
            acc += math.hypot(q.x - p.x if p.x < q.x else p.x - q.x, p.y - q.y)
            seen[i % 97] = acc
        for i in range(60 * reps):
            c, s = np.cos(self.angles + i * 1e-3), np.sin(self.angles)
            ix = np.clip((c * 20 + 32).astype(int), 0, 63)
            iy = np.clip((s * 20 + 32).astype(int), 0, 63)
            acc += float(grid[ix, iy].sum()) + float(np.hypot(c, s).max())
        return (time.perf_counter() - t0) / reps


class HostSpeed:
    """While entered, a timer signal interrupts the process every ``interval``
    seconds to time one probe, so the samples cover the host's speed over the
    whole block.

    Sampling only between the passes misses swings shorter than a pass; on a
    2-vCPU VM the in-pass samples cut the spread of a pass's scaled throughput
    over minutes about threefold.
    """

    def __init__(self, probe, interval=0.2):
        self.probe = probe
        self.interval = interval
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(self.probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self):
        """The host's mean slowdown against the reference while the block ran."""
        samples = self.samples or [self.probe()]  # a block shorter than the interval
        return statistics.fmean(samples) / PROBE_REF_S

    def work_s(self, seconds):
        """``seconds`` of the block less the time the probes took."""
        return seconds - sum(self.samples)
