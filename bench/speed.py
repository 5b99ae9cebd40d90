"""Timings at a fixed reference speed.

On a shared 2-core VM the speed of a core was seen to change by up to 1.8x
from one second to the next, independently on each core, and the mix of
fast and slow seconds to drift over minutes.  Wall time then measures the
host as much as the program.  A `SpeedProbe` interrupts the timed process
every INTERVAL seconds (SIGALRM) and times a fixed pure-Python kernel that
has nothing to do with chrkit, and also just before and just after each
phase; a phase's wall time, minus the time spent in the handler, is scaled
by K_REF / (the kernel's mean time over those samples).
A faster or slower chrkit moves the result in full; a faster or slower
core moves the kernel too and cancels out.

The handler runs in the main thread, on the core it runs on at that moment;
each sample is the fastest of three kernel runs back to back, so a GIL
hand-off that lands in one of them does not count as a slow core.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.02
# about the kernel's time on a fast core of the 2-vCPU VM (Python 3, x86-64)
# the bounds were set on: a scaled time is roughly the wall time the phase
# takes there at full speed
K_REF = 45e-6


def kernel() -> int:
    """Tuples, dict updates, calls and small strings, like chrkit's own mix."""
    d: dict = {}
    acc = 0
    for i in range(120):
        key = ("k", i % 17)
        d[key] = d.get(key, 0) + i
        acc += len(f"x{i}")
    return acc + len(d)


def sample() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """While active, samples the kernel's speed every `interval` seconds."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples: list[float] = []
        self.probe_s = 0.0  # time spent in the handler, wall
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> tuple[int, float]:
        """Call just before a phase; samples the speed there."""
        self.samples.append(sample())
        return len(self.samples) - 1, self.probe_s

    def scaled(self, wall: float, mark: tuple[int, float]) -> float:
        """`wall` seconds since `mark`, at the reference speed.  Call just
        after the phase; the speed is the mean of the samples from just
        before, during and just after it, so a phase shorter than the
        interval is still timed at its own speed."""
        n, probe_s = mark
        self.samples.append(sample())
        factor = K_REF / statistics.fmean(self.samples[n:])
        return (wall - (self.probe_s - probe_s)) * factor
