"""The pace of the core the benchmark runs on, from a fixed reference kernel.

On a shared host the speed of a core changes by up to a factor of two,
for seconds or for minutes, and CPU time changes with it: the same
pure-Python loop took 0.32 s to 0.63 s of CPU time within one minute on
an otherwise idle 2-core machine. The benchmark therefore times a fixed
reference kernel next to every op and reports each op's time scaled to the
pace at which that kernel takes REF_S, the kernel's CPU time on an idle core
of that machine.

The kernel is a backward Riccati recursion on a fixed 3x3 system in plain
numpy: small matrix products and a linear solve, the same kind of work as
the package's stage steps, so a busy host slows both alike. It calls
nothing in the package, so a change to the package cannot change the pace.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 200          # stage steps per sample, about 3 ms
REF_S = 3.0e-3      # CPU seconds of one sample on an idle core (see README.md)

_A = np.array([[0.9, 0.2, 0.0], [0.1, 0.8, 0.3], [0.0, -0.2, 0.7]])
_B = np.array([[1.0, 0.0], [0.3, 1.0], [0.0, 0.5]])
_Q = np.eye(3)
_R = np.eye(2)


def sample() -> float:
    """CPU seconds of one run of the reference kernel."""
    t0 = time.process_time()
    P = _Q.copy()
    for _ in range(REPS):
        S = _R + _B.T @ P @ _B
        K = np.linalg.solve(S, _B.T @ P @ _A)
        P = _Q + _A.T @ P @ (_A - _B @ K)
        P = 0.5 * (P + P.T)
    return time.process_time() - t0


class Pace:
    """Reference samples in the order they were taken."""

    def __init__(self):
        for _ in range(3):
            sample()    # numpy's lazy set-up is not a sample
        self.samples = []

    def mark(self) -> None:
        self.samples.append(sample())

    def scale(self, k: int) -> float:
        """The factor that brings a time measured just after sample k to
        the reference pace: REF_S over the median of the two samples before
        that time and the two after it, so that one sample caught by a
        short spike does not set the pace."""
        window = self.samples[max(0, k - 1):k + 3]
        return REF_S / statistics.median(window)

    def overall(self) -> float:
        """The factor for the span of every sample taken so far."""
        return REF_S / statistics.median(self.samples)
