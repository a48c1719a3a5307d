"""Timings normalized by a calibration kernel.

The shared host the benchmark was tuned on (a 2-core Intel Xeon VM)
changes speed by up to a third over tens of seconds, and loses the CPU
to other tenants in bursts that double wall time.  CPU time drops the
bursts but not the speed changes.  So each piece of work is timed in
CPU seconds, divided by the mean CPU time of a fixed calibration
kernel run around it, and multiplied by a fixed constant per kernel.
The result is in seconds that compare across runs and commits; on that
VM it came within a factor of two of the raw CPU time.

Interpreted code and LAPACK slowed by different amounts there, so each
workload uses the kernel that matches where its time goes: ``python``
(submask loops over a numpy table, JSON encode and decode) for the
table-game workloads, ``lapack`` (Cholesky factorizations of GP-sized
matrices) for the GP workload.  Over three minutes of repeated jobs the
matching kernel cut the spread (interquartile range over median) of
per-job times from 0.14-0.42 to 0.07-0.12, while the interpreted kernel
left two of the three GP jobs worse than no normalization.  Running the
kernel inside long jobs as well (see ``Meter``) cut the spread of the
table-wide batch time over five seeds from 0.108 to 0.017.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

_TABLE = np.random.default_rng(0).uniform(size=1 << 10)
_DOC = {str(i): float(x) for i, x in enumerate(np.random.default_rng(1).uniform(size=400))}


def _gram(points: int) -> np.ndarray:
    x = np.random.default_rng(points).uniform(size=(points, 6))
    return np.exp(-0.5 * ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)) + 0.05 * np.eye(points)


_GRAMS = (_gram(400), _gram(400), _gram(640))


def _python_kernel():
    v, worst = _TABLE, 0.0
    for c in range(1, len(v)):
        vc, sub = v[c], (c - 1) & c
        while sub:
            gap = v[sub] - vc
            if gap > worst:
                worst = gap
            sub = (sub - 1) & c
    for _ in range(3):
        json.loads(json.dumps(_DOC))


def _lapack_kernel():
    for _ in range(2):
        for gram in _GRAMS:
            scipy.linalg.cholesky(gram, lower=True)


# name -> (kernel, the constant that scales a kernel-relative time back to seconds)
KERNELS = {"python": (_python_kernel, 0.0185), "lapack": (_lapack_kernel, 0.052)}


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have exited."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass(frozen=True)
class Timing:
    seconds: float  # normalized CPU seconds: what the metrics report
    cpu: float
    wall: float


class Meter:
    """Times consecutive pieces of work, each normalized by kernel runs around and inside it.

    The kernel runs before and after each piece of work and, when
    ``sample`` is set, also every ten kernel lengths of CPU time during
    it, from a SIGPROF handler; its CPU time there is subtracted from the
    work's.  Sampling inside long jobs follows speed changes that happen
    while they run.  Traced runs turn it off, so no span contains the kernel.
    """

    def __init__(self, kernel: str, sample: bool = True):
        self._kernel, self._reference = KERNELS[kernel]
        self._sample = sample
        self._before = self._kernel_seconds()
        self._during: list[tuple[float, float]] = []  # (CPU, wall) of each kernel run

    def _kernel_seconds(self) -> float:
        start = time.process_time()
        self._kernel()
        return time.process_time() - start

    def _tick(self, signum, frame):
        wall = time.perf_counter()
        self._during.append((self._kernel_seconds(), time.perf_counter() - wall))

    def measure(self, fn):
        """Call ``fn()``; return its result and its Timing."""
        self._during = []
        if self._sample:
            interval = 10 * self._reference
            previous = signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, interval, interval)
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        try:
            result = fn()
        finally:
            cpu, wall = cpu_seconds() - cpu0, time.perf_counter() - wall0
            if self._sample:
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.signal(signal.SIGPROF, previous)
        cpu -= sum(k for k, _ in self._during)
        wall -= sum(w for _, w in self._during)
        after = self._kernel_seconds()
        speed = statistics.fmean([self._before, *(k for k, _ in self._during), after])
        self._before = after
        return result, Timing(cpu * self._reference / speed, cpu, wall)
