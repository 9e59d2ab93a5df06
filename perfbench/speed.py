"""The machine's speed, sampled while the workload runs.

On a shared host the same pass can take 50 % longer from one minute to the
next, because other tenants' work slows the cores this one runs on; the
time is lost on the core, not to the scheduler, so CPU time slows as much
as wall time. A median over 30 s does not remove that: the slow spells
last tens of seconds. So the benchmark times a fixed reference kernel, the
workloads' own mix of work, on a timer while the commands run, and scales
each command's time by how fast the kernel ran around it:

    at_reference = raw * REFERENCE_S / local

``local`` is the median kernel time within ``WINDOW_S`` of the command.
``REFERENCE_S`` is a constant: the kernel's time on an undisturbed core
of the machine the bounds were set on (2-core Xeon VM, Python 3.11,
numpy 2.4). The scaled time is the command's wall time on that machine
when undisturbed; on a machine of another speed it is off by a constant
factor, which cancels when two commits are compared there. The kernel
uses numpy and the standard library only, never the package, so a change
to the package cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

TICK_S = 0.05
WINDOW_S = 0.25
REFERENCE_S = 0.00065

_rng = np.random.default_rng(0)
_SMALL = _rng.random((4, 4, 8, 8))  # 8 KB, a fixture-sized tensor
_LARGE = _rng.random((54, 9, 8, 8))  # 243 KB, a large-alphabet one


def kernel() -> float:
    """About 0.65 ms of fixed work, in three parts of the workloads' kinds.

    Many numpy calls on a fixture-sized tensor, a few on a tensor the size
    of a large-alphabet ``marginal_entropies`` input, and a Python loop.
    Contention slows the parts by different amounts, so the kernel holds
    all three.
    """
    s = 0.0
    for i in range(30):
        m = (_SMALL * (i + 1.0)).sum(axis=(2, 3))
        s += float(np.log2(m / m.sum()).sum())
    for i in range(8):
        m = (_LARGE * (i + 1.0)).sum(axis=(2, 3))
        s += float(np.log2(m / m.sum()).sum())
    d: dict = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    return s + sum(d.values())


def time_kernel() -> float:
    """One kernel run, right after a first one that warms the caches."""
    kernel()
    start = perf_counter()
    kernel()
    return perf_counter() - start


def burst(n: int = 10) -> list:
    return [time_kernel() for _ in range(n)]


def scale(raw: float, local: float) -> float:
    """raw at the reference speed, given the local kernel time."""
    return raw * REFERENCE_S / local


class Sampler:
    """Times the kernel on SIGALRM every TICK_S while it is started.

    ``spent`` is the total time the samples took, so a caller can take it
    out of a wall time that the samples interrupted.
    """

    def __init__(self):
        self.samples = []  # (start, duration)
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, time_kernel()))
        self.spent += perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def at_reference(self, raw: float, began: float, ended: float) -> float:
        """raw scaled by the median sample near [began, ended].

        A run too short to have a sample near the command keeps its raw
        time.
        """
        near = [d for t, d in self.samples if began - WINDOW_S <= t <= ended + WINDOW_S]
        return scale(raw, statistics.median(near)) if near else raw
