"""Machine-speed probe for the absorbctl benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two within a minute.  The drift is slower execution, not
waiting: a command's CPU time drifts with its wall time, so neither longer
runs nor CPU time remove it.  A median of raw command times over a 30-second
run spread by about 20% (distance between quartiles over median) across runs
made minutes apart.

So while a command runs, ``SpeedProbe`` times a fixed kernel that belongs to
the benchmark every ``PERIOD_S`` seconds, from a ``SIGALRM`` handler on the
same thread.  The command's own time is its wall time less the handler's,
and it is reported at the reference speed: scaled by ``REFERENCE_S`` over
the mean kernel time seen during the command.  The kernel is a Python loop
over two-element NumPy arrays, like the program's hot paths, so it slows
down with them; the program's code never runs in it, so a change to the
program cannot move it.  On the same host this cut that spread to about 4%.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1        # one kernel sample per 0.1 s of a command: ~4% of its time
KERNEL_STEPS = 200    # ~2.5-5 ms per sample on the machine in baseline.json
# the kernel's time on that machine when the host is quiet; times are reported
# as if the kernel had taken this long while they were measured
REFERENCE_S = 0.0025

_A = np.array([[0.0, 1.0], [-1.0, -0.1]])


def kernel() -> float:
    """A fixed amount of Python-over-small-NumPy work: midpoint steps of a
    damped oscillator with a sine term."""
    x = np.array([0.3, -0.2])
    h = 0.01
    peak = 0.0
    for _ in range(KERNEL_STEPS):
        k1 = _A @ x + 0.1 * np.sin(x)
        mid = x + 0.5 * h * k1
        x = x + h * (_A @ mid + 0.1 * np.sin(mid))
        peak = max(peak, float(np.abs(x).max()))
    return peak


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the kernel every ``PERIOD_S`` seconds between ``start`` and
    ``stop``; ``at_reference_speed`` converts the wall time of that interval."""

    def __init__(self):
        kernel()  # first call pays NumPy's lazy set-up
        self.inside_s = 0.0   # handler time spent inside the interval
        self.samples = []     # kernel times

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.inside_s += time.perf_counter() - t0

    def start(self) -> None:
        self.inside_s = 0.0
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference_speed(self, wall: float) -> float:
        """The interval's wall time without the probe's own, at the speed at
        which the kernel takes ``REFERENCE_S``."""
        if not self.samples:  # interval shorter than one period
            self.samples.append(kernel_seconds())
        speed = sum(self.samples) / len(self.samples)
        return (wall - self.inside_s) * REFERENCE_S / speed
