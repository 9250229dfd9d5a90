"""Machine-speed normalization of wall times.

The benchmark runs on shared 2-core virtual machines whose cores change
speed by up to 2x for seconds at a time while other tenants run; process
CPU time slows by the same factor, so it does not help, and there are no
hardware counters.  A fixed reference kernel is therefore timed every
PERIOD seconds from a SIGALRM handler in the benchmark's own
thread, on the same core and in the same machine state as the program.
The kernel mixes the three kinds of work the workloads spend their time on,
because contention slows each kind by a different factor.

A measured interval is scaled by REFERENCE_S / (trimmed mean kernel time
within WINDOW seconds of the interval), or, for an interval no longer than SHORT
such as one replayed step, by REFERENCE_S / (the kernel's time right before
it); the machine changes state within fractions of a second.  Either way it reads as the time the interval
would take on a machine whose kernel runs in REFERENCE_S.  The sampler's
own time is taken out of every interval.  Raw times are kept alongside.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

PERIOD = 0.04
WINDOW = 0.3
# intervals up to this long are scaled by the kernel timed right before them
SHORT = 4 * PERIOD
# the kernel's typical time on the 2-core Xeon the benchmark was defined on
REFERENCE_S = 300e-6

_perf = time.perf_counter
_rng = np.random.default_rng(12345)
_W = _rng.normal(size=(8, 8)) / 3.0
_B = _rng.normal(size=8)
_A = 2.0 * np.eye(3) + 0.3 * _rng.normal(size=(3, 3))
_X = _rng.normal(size=(512, 8))


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def _kernel():
    """Four parts that slow down differently under contention: elementwise
    numpy on tiny arrays, small LAPACK solves, vectorized arithmetic on a
    512-row batch, and Python object churn like a graph walk."""
    x = np.ones(8)
    for _ in range(6):
        x = np.tanh(_W @ x + _B) * 0.5 + np.log1p(np.exp(x[::-1])) * 0.1
    for i in range(3):
        a = _A + 0.01 * i
        y = np.linalg.solve(a, x[:3]) * np.linalg.cond(a)
        x = np.concatenate([x[3:], np.arcsinh(np.sinh(y))])
    batch = _X
    for _ in range(2):
        batch = np.log1p(np.exp(batch @ _W.T + _B)) - 0.5
    node = _Node(1.0, ())
    for i in range(100):
        node = _Node(node.value * 1.0001 + i, (node,))
    seen = set()
    todo = [node]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.parents)
    return x, batch, len(seen)


def _timed_kernel():
    """Seconds of one kernel run with warm caches and garbage collection
    paused.  Run cold, the kernel would mostly measure how much of the cache
    the program just evicted, and a collection started by its allocations
    would walk the program's heap; both depend on the program, not the
    machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = _perf()
        _kernel()
        return _perf() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the reference kernel while active; scales recorded intervals."""

    def __init__(self):
        self.times = []        # kernel sample midpoints, raw perf_counter
        self.kernel = []       # kernel durations
        self.spent = 0.0       # total time spent in the sampler
        self.active = False

    def _sample(self, signum, frame):
        start = _perf()
        kernel = _timed_kernel()
        end = _perf()
        self.times.append(0.5 * (start + end))
        self.kernel.append(kernel)
        self.spent += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.active = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False

    def start(self, reference=False):
        """Opaque mark for `stop`.  With `reference`, the kernel is timed
        right before the interval, and scales it alone if the interval turns
        out no longer than SHORT, such as one replayed step."""
        kernel = None
        if reference and self.active:
            kernel = _timed_kernel()
        return (_perf(), self.spent, kernel)

    def stop(self, mark):
        """Interval (start, end, seconds without the sampler's own time,
        kernel time or None)."""
        end = _perf()
        return (mark[0], end, (end - mark[0]) - (self.spent - mark[1]), mark[2])

    def kernel_s(self, start, end):
        """Mean kernel time within WINDOW of [start, end], without the
        slowest and fastest tenth.  Samples are evenly spaced in time, so
        the mean weighs each machine state by the time spent in it."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        window = sorted(self.kernel[lo:hi] or self.kernel)
        cut = len(window) // 10
        return statistics.fmean(window[cut:len(window) - cut])

    def scaled(self, interval):
        start, end, seconds, kernel = interval
        if kernel is None or end - start > SHORT:
            kernel = self.kernel_s(start, end)
        return seconds * REFERENCE_S / kernel
