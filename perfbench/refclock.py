"""A reference kernel sampled on a timer, and a clock that leaves it out.

The cores of a shared host do not keep one speed: on the 2-core VM where
``baseline.json`` was measured, a fixed workload ran up to 30% faster or
slower for seconds at a time, as the host's load changed.  No statistic of
one run's operation times removes that.  So while the benchmark runs, a
timer interrupts it every ``INTERVAL`` seconds and times a fixed kernel
that uses no eventsnn code (``kernel``).  A span of eventsnn work is then
reported in *reference seconds*: its duration times its mean speed
relative to the reference (``REF_SECONDS`` over the kernel time sampled
around it), i.e. how long it would have taken at the speed at which the
kernel takes ``REF_SECONDS``.  A change to eventsnn moves the work, not
the kernel, so it moves the reported time in full.

``RefClock.now`` is ``time.perf_counter`` minus the time spent in the
kernel, so spans measured with it exclude the interruptions.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1  # seconds between kernel samples
WINDOW = INTERVAL  # samples this close to a span set its speed
# Nominal kernel time: about what the kernel took on the baseline machine.
REF_SECONDS = 0.002

_RNG = np.random.default_rng(0)
_ROW = _RNG.random(128)  # one sample's lanes, as on the B=1 paths
_BATCH = _RNG.random((64, 128))  # a batch of 64 such rows
_ROWS = np.arange(64)


def kernel() -> float:
    """Fixed numpy work of the two shapes eventsnn's event loops have: many
    calls on one row of lanes, whose cost is mostly the calls' own
    overhead (about 70% of the kernel's time), and fewer calls on a batch
    of rows.  Of the kernels tried (an interpreted loop, small and large
    matmuls, wide element-wise numpy, object allocation, and these two
    alone), this mix tracked the speed of the workloads' operations and
    set-ups most closely."""
    acc = 0.0
    for _ in range(270):
        x = np.exp(-_ROW * 0.5) + _ROW
        j = int(np.argmin(x))
        acc += float(x[j])
    for _ in range(17):
        b = np.exp(-_BATCH * 0.5) + np.sqrt(_BATCH)
        idx = np.argmin(b, axis=1)
        acc += float(b[_ROWS, idx].sum())
    return acc


class RefClock:
    def __init__(self):
        self.kernel_total = 0.0
        self.samples = []  # (now() at the sample, kernel seconds)
        self._old_handler = None

    def now(self) -> float:
        """Seconds on a clock that stops while the kernel runs."""
        return time.perf_counter() - self.kernel_total

    def start(self) -> None:
        """Sample once now, then every INTERVAL seconds until ``stop``."""
        self._sample(None, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append((t0 - self.kernel_total, dt))
        self.kernel_total += dt

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per second over the span [start, end]
        (``now()`` readings), from the kernel samples within ``WINDOW`` of
        it: REF_SECONDS times the mean of 1 / kernel time.  Speed is work
        per second, so this is the span's mean speed relative to the
        reference; a sample the scheduler cut into reads as a slow one and
        barely moves the mean."""
        near = [d for t, d in self.samples if start - WINDOW <= t <= end + WINDOW]
        if not near:
            # the span lies outside the sampled run; use the nearest sample
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return REF_SECONDS * statistics.fmean(1.0 / d for d in near)

    def ref_seconds(self, span) -> float:
        start, end = span
        return (end - start) * self.scale(start, end)
