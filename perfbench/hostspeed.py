"""Rescale timed intervals to a reference host speed.

On a shared host the speed of one vCPU swings by up to 1.8x within seconds
and drifts over minutes with the load of other tenants, so the raw time of
the same job varies far more between runs than any change worth measuring.
A SpeedSampler measures the speed of the CPU the timed code runs on, at the
same time and in the same process: a SIGALRM every PERIOD_S seconds runs a
fixed reference loop twice and times the second run, so that the sample
measures the speed of the core rather than how much of the loop's code and
data the timed work has pushed out of the caches.  An interval is then
rescaled as

    (elapsed - time spent in the sampler) * REF_LOOP_S / mean loop time

the seconds it would have taken at the speed at which one loop takes
REF_LOOP_S.  REF_LOOP_S is about the loop's mean inside a job on the 2-vCPU
x86_64 host the benchmark was tuned on, so rescaled seconds are close to
that host's usual seconds.  The loop does the kind of work treesense does
(Python bytecode around small numpy calls) but calls no treesense code: a
change to treesense moves the rescaled time, not the loop.

Python runs signal handlers between bytecodes of the main thread, so the
loop never runs in the middle of a numpy call; a long C call only delays a
sample.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
REF_LOOP_S = 1.6e-4

_rng = np.random.default_rng(12345)
_VALUES = _rng.standard_normal(63)
_GROUPS = [tuple(range(i, min(63, i + 7))) for i in range(0, 63, 3)]


def reference_loop():
    """Fixed work: group norms over a 63-vector, then scalar arithmetic."""
    total = 0.0
    for group in _GROUPS:
        idx = np.fromiter((i for i in group), dtype=int)
        total += float(np.linalg.norm(_VALUES[idx]))
    for i in range(300):
        total += i * 0.5
    return total


class SpeedSampler:
    """Context manager that samples the reference loop while its body runs.

    After the body: `wall_s` and `cpu_s` are the raw wall and CPU seconds of
    the body, `sampler_s` and `sampler_cpu_s` the part of them spent in the
    sampler, `loop_s` the loop's mean time, and `ref_wall_s` and `ref_cpu_s`
    the body's own wall and CPU seconds rescaled to the reference speed.
    """

    def __init__(self):
        self.samples = []
        self.sampler_s = self.sampler_cpu_s = 0.0

    def _tick(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        reference_loop()
        warm = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - warm)
        self.sampler_s += time.perf_counter() - wall
        self.sampler_cpu_s += time.process_time() - cpu

    def __enter__(self):
        # the first samples, from just before the body, keep the mean
        # defined for a body shorter than one period
        self._tick(signal.SIGALRM, None)
        self.sampler_s = self.sampler_cpu_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu
        signal.signal(signal.SIGALRM, self._previous)
        self.loop_s = statistics.fmean(self.samples)
        return False

    @property
    def ref_wall_s(self):
        return (self.wall_s - self.sampler_s) * REF_LOOP_S / self.loop_s

    @property
    def ref_cpu_s(self):
        return (self.cpu_s - self.sampler_cpu_s) * REF_LOOP_S / self.loop_s
