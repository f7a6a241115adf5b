"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared virtual machine the same solve can take 1.5 times as long
for a minute or more while a neighbour is busy, so a 40-second run can
land wholly in a slow period and no statistic over its own samples
removes that.  The benchmark therefore times this kernel right before
and right after every timed solve and set-up, divides the solve's wall
time by the kernel's time, and reports the quotient multiplied by
``REFERENCE_S``: seconds at a reference host speed.

The kernel mixes what the program spends its time on: a Python loop of
small numpy gathers and square roots feeding a heap, ``bincount`` loads,
and a column max over a dense block.  Its inputs come from a fixed seed,
not the workload seed, so every run and every commit time the same work;
it calls nothing from the program, so a change to the program moves the
reported times in full.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

BURSTS = 3
# Roughly one burst on a 2-vCPU x86-64 virtual machine with one OpenBLAS
# thread (1.7 to 2.7 ms, with host load).  It only scales the reported times.
REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(20190226)
_LOAD = _rng.random(3000)
_IDS = [_rng.choice(3000, 8, replace=False) for _ in range(400)]
_VALS = [_rng.random(8) for _ in range(400)]
_FLAT_IDS = np.concatenate(_IDS)
_FLAT_VALS = np.concatenate(_VALS)
_BLOCK = _rng.random((1500, 200))


def _burst() -> float:
    t0 = time.perf_counter()
    heap = []
    for j in range(len(_IDS)):
        p = _LOAD[_IDS[j]]
        gain = float((np.sqrt(p + _VALS[j]) - np.sqrt(p)).sum())
        heapq.heappush(heap, (-gain, j))
    while heap:
        heapq.heappop(heap)
    for _ in range(4):
        np.sqrt(np.bincount(_FLAT_IDS, weights=_FLAT_VALS, minlength=_LOAD.size)).sum()
    for _ in range(4):
        _BLOCK[:, :60].max(axis=1).sum()
    return time.perf_counter() - t0


def sample() -> list[float]:
    """Times of ``BURSTS`` back-to-back runs of the kernel, in seconds."""
    return [_burst() for _ in range(BURSTS)]


def speed(before: list[float], after: list[float]) -> float:
    """Kernel time around one timed region: the median of the bursts on both sides."""
    return statistics.median(before + after)


def at_reference(elapsed: float, kernel_s: float) -> float:
    """``elapsed`` seconds measured while the kernel took ``kernel_s``, at reference speed."""
    return elapsed / kernel_s * REFERENCE_S
