"""Wall time corrected for the speed of a shared machine.

On a machine whose cores are shared with other tenants, the same rwcert call
can take 1x or 1.8x its usual time, in stretches of seconds to a minute, so a
median over a 40-second run moves by a third from run to run.  This module
measures the machine's speed while the benchmark runs, with a fixed reference
kernel that is not rwcert code: small NumPy products, a 4x4 inverse and
interpreted arithmetic, the mix rwcert's jet and curvature code spends its time
on.  The kernel runs right before and after a timed interval and, from a
SIGALRM handler, every SAMPLE_EVERY_S seconds inside it.

    adjusted seconds = measured seconds * KERNEL_NOMINAL_S / mean kernel time

are the seconds the interval would have taken on a machine on which the
kernel takes KERNEL_NOMINAL_S.  The kernel's own time is not counted in the
interval.  A change to rwcert does not change the kernel, so adjusted times of
two commits compare like their wall times would on a quiet machine.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
from time import perf_counter

import numpy as np

# The kernel's time on an idle core of the machine the benchmark was defined
# on (2 vCPUs of an Intel Xeon, Python 3.11, NumPy 2.4 with OpenBLAS).
KERNEL_NOMINAL_S = 0.85e-3
SAMPLE_EVERY_S = 0.05


class _Taylor:
    """A frozen stand-in for third-order Taylor arithmetic on 4 variables."""

    __slots__ = ("v", "g", "h", "c")

    def __init__(self, v, g, h, c):
        self.v, self.g, self.h, self.c = v, g, h, c

    def __mul__(self, o):
        gg = self.g[:, None] * o.g
        t = self.h[:, :, None] * o.g
        return _Taylor(self.v * o.v, self.g * o.v + self.v * o.g,
                       self.h * o.v + self.v * o.h + gg + gg.T,
                       self.c * o.v + self.v * o.c + t + t.transpose(0, 2, 1))

    def __add__(self, o):
        return _Taylor(self.v + o.v, self.g + o.g, self.h + o.h, self.c + o.c)


_X = _Taylor(0.9, np.linspace(0.1, 0.4, 4), np.full((4, 4), 0.01), np.zeros((4, 4, 4)))
_G = np.linspace(0.1, 1.0, 16).reshape(4, 4) + 4.0 * np.eye(4)
_T = np.linspace(-1.0, 1.0, 64).reshape(4, 4, 4)


def _kernel() -> float:
    acc = 0.0
    for _ in range(12):
        y = _X
        for _ in range(4):
            y = y * _X + _X
        gamma = 0.5 * np.einsum("km,mij->kij", np.linalg.inv(_G + y.h), _T)
        acc += y.v + float(gamma[1, 2, 3])
    return acc


def kernel_seconds() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class Interval:
    """Times one interval; `seconds` and `adjusted` are set on exit.

    With `inside=False` the kernel runs only before and after, for an
    interval that waits on a child process pinned to the same core."""

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.kernel: list[float] = []
        self.seconds = self.adjusted = 0.0

    def _sample(self, signum=None, frame=None):
        self.kernel.append(kernel_seconds())

    def __enter__(self):
        self._sample()
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        end = perf_counter()
        inside = sum(self.kernel[1:])
        self._sample()
        self.seconds = end - self._start - inside
        self.adjusted = self.seconds * KERNEL_NOMINAL_S / statistics.fmean(self.kernel)
        return False


@contextlib.contextmanager
def pinned():
    """Run on one CPU, so the kernel and the timed work (children included)
    share the core whose speed is measured."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
