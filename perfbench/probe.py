"""Machine-speed probe.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, with the same drift in process CPU time as in wall
time. The probe is a fixed piece of work that does not use costcap: pointer
chasing through a small binary search tree of Python objects, float
arithmetic and small NumPy calls, the mix a controller step consists of.
Its CPU time, taken between stretches of benchmark work, gives the host's
current speed; a stretch's times are scaled by ``REFERENCE_S / probe
time``, which expresses them at the speed of a host on which the probe
takes ``REFERENCE_S``. A change to costcap leaves the probe unchanged, so it moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import threading
from time import thread_time

import numpy as np

REFERENCE_S = 0.3e-3  # about the quiet-host probe time on a 2-core x86-64 VM
INTERVAL_S = 0.1  # probe at most this often while benchmark work is timed
_INSERTS = 200
_REPEATS = 3


class _Node:
    __slots__ = ("key", "weight", "left", "right")

    def __init__(self, key: float) -> None:
        self.key = key
        self.weight = 1.0
        self.left = None
        self.right = None


def _work() -> float:
    root = _Node(0.5)
    x = 0.123456
    total = 0.0
    for i in range(_INSERTS):
        x = (x * 3.9) % 1.0
        node = root
        while True:
            node.weight += 1.0
            nxt = node.left if x < node.key else node.right
            if nxt is None:
                if x < node.key:
                    node.left = _Node(x)
                else:
                    node.right = _Node(x)
                break
            node = nxt
        if i % 8 == 0:
            a = np.array([x, 1.0 - x, x * x, 0.5, 0.25, 0.75, x / 2.0, 0.1, 0.9, 0.3])
            order = np.argsort(-a, kind="stable")
            total += float(np.cumsum(a[order])[-1])
    return total


def seconds() -> float:
    """CPU time of the probe work, the least of a few repetitions. The
    collector is off meanwhile, so that collections the benchmarked program
    has made due land in its own steps, not in the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            t0 = thread_time()
            _work()
            best = min(best, thread_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor for work timed between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)


class Sampler:
    """Probes from a background thread every ``INTERVAL_S`` while the
    calling thread waits on work that runs in other threads (the sweep's
    ``run_experiment``). Probe CPU time leaves out the time spent waiting for
    the interpreter lock."""

    def __init__(self) -> None:
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe")

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(seconds())

    def __enter__(self):
        self.samples.append(seconds())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(seconds())

    def scale(self) -> float:
        """Mean factor over the sampled stretch."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
