"""Host-speed sampling for the benchmark's time metrics.

The host is shared. Its CPU speed switches between fast and slow states,
up to about 1.8x apart, every second or so, and the share of slow time
changes from minute to minute. A run of tens of seconds then takes 10-30%
longer or shorter than the next for the same work, which hides any change
to the program smaller than that.

The benchmark therefore pins itself and its children to one CPU and, while
a child runs, a `Sampler` thread times a short fixed probe on that CPU every
`PERIOD_S`. The probe mixes the kinds of work uqsim does, and in the slow
state it slows by about 1.7x, within the 1.5-1.8x of the workloads. It uses
nothing from uqsim, so it is the same on every commit, and it takes about
1% of the CPU. `REFERENCE_S` is the probe's time in the fast state of a
2-vCPU Xeon virtual machine. A process that ran for `t` seconds while the
probe's speed relative to the reference averaged `v` did the work of
`t * v` seconds at the reference speed.
"""
from __future__ import annotations

import math
import os
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 0.00118
PERIOD_S = 0.1
_AMPS = np.exp(0.1j * np.arange(128)) / np.sqrt(128)


def pin_to_one_cpu() -> int:
    """Pin this process, its later threads and children to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class _Gate:
    __slots__ = ("qubit", "theta", "matrix")

    def __init__(self, qubit: int, theta: float):
        self.qubit, self.theta = qubit, theta
        c, s = math.cos(theta), math.sin(theta)
        self.matrix = ((c, -s), (s, c))


def _probe() -> float:
    """About 1 ms of the mix uqsim runs, in three equal parts: an arithmetic
    loop, small Python objects in a dict, and small numpy updates of a
    7-qubit state vector."""
    s = 0
    for i in range(6000):
        s += i * i % 7
    gates = {}
    for i in range(500):
        g = _Gate(i % 7, 0.01 * i)
        gates[(g.qubit, i % 13)] = g.matrix[0][1] * g.theta
    amps = _AMPS.copy()
    for _ in range(5):
        for q in range(7):
            view = amps.reshape(128 >> (q + 1), 2, 1 << q)
            lo = view[:, 0, :].copy()
            view[:, 0, :] = 0.8 * lo + 0.6j * view[:, 1, :]
            view[:, 1, :] = 0.6j * lo + 0.8 * view[:, 1, :]
    return s + sum(gates.values())


class Sampler:
    """Time `_probe` every `PERIOD_S` on a thread, inside a `with` block."""

    def __init__(self):
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            _probe()
            self.times.append(clock() - t0)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def speed(times: list[float]) -> float | None:
    """Mean probe speed relative to the reference, or None without probes."""
    return statistics.fmean(REFERENCE_S / t for t in times) if times else None
