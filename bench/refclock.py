"""A clock that counts reference seconds: wall time scaled to a fixed interpreter speed.

On a shared host the speed of one vCPU swings with what its neighbours run.
On the 2-vCPU VM this benchmark was written on, a fixed task of small numpy
calls took either about 65 or about 125 us, switching between the two from
one 10-ms sample to the next, and fixed pagaudit work took from 1x to 1.4x
its best time over a 20-s run.  So the wall time of a run followed the host,
whatever the program did.

This clock measures the swings as they happen.  Every ``PERIOD_S`` wall
seconds a SIGALRM handler times that fixed reference task, and the wall
time until the next sample counts ``NOMINAL_S / t_task`` reference seconds
per wall second.  The task is what a CI query spends most of its time on:
small numpy calls on short integer arrays, driven from Python.  It runs
once untimed first, so that its timed run finds numpy's code warm whatever
the program was doing; timed cold, it read up to 40% slower during the
oracle workload, which calls no numpy, than during the sample workloads.

The task is not program code, so work the program adds or saves shows in
full.  What the program leaves in the caches can still move the task's
time a little; compare reference times of two commits on the same workload
only.  The clock tracks CPU-bound Python and small-array numpy work; it does
not track file I/O or module imports.  The handler's own time (about 0.1 ms
per sample, about 1% of the run) is left out of the count.

Use one clock per process: ``start()`` before the timed work, ``now()``
around each piece of it, ``stop()`` when done (also on every way out).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
# The task's typical time on the 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) the
# benchmark was written on, so that one reference second is about one wall
# second there.
NOMINAL_S = 0.6e-4
_ARRAYS = [np.arange(50, dtype=np.int64) % 3 for _ in range(20)]


def _task() -> None:
    for a in _ARRAYS:
        np.bincount(a * 3 + a, minlength=9)


class RefClock:
    """Reference seconds, advanced from SIGALRM samples; until ``start()``, wall seconds."""

    def __init__(self):
        # (reference seconds at the last sample, wall time of it, reference s per wall s)
        self._state = (0.0, time.perf_counter(), 1.0)
        self.task_s: list[float] = []

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        ref, wall, scale = self._state  # one read: a sample may land at any bytecode
        return ref + (time.perf_counter() - wall) * scale

    def speed(self) -> float:
        """Median reference seconds per wall second over the samples so far."""
        return NOMINAL_S / statistics.median(self.task_s)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        begin = time.perf_counter()
        _task()  # warm-up
        start = time.perf_counter()
        _task()
        end = time.perf_counter()
        self.task_s.append(end - start)
        ref, wall, scale = self._state
        # the stretch since the last sample ran at its speed; the handler's own
        # time is not counted
        self._state = (ref + (begin - wall) * scale, end, NOMINAL_S / (end - start))
