"""Host speed: a fixed reference computation timed alongside the work.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by a third or more from one minute to the next.  CPU
time tracks wall time within a few percent, so the drift is in how fast
the cores run, not in how often the process gets them, and the same
drift moves every timing of a run together.

A run therefore times a fixed kernel, independent of the program, many
times while it works: between the sweeps' solves, around the service's
constructions, and in the slack of the open loop.  Each reported timing
is its raw value scaled by ``REFERENCE_S / median(kernel times)``: the
time it would take on a host that runs the kernel in ``REFERENCE_S``.
A change to the program moves the scaled figure as much as the raw one;
the host's drift cancels as far as the kernel slows down with it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Kernel time at the reference speed: about its typical time on the
#: 2-vCPU machine that perfbench/README.md reports numbers from.
REFERENCE_S = 0.0012

_SORTED = np.random.default_rng(0).random(40_000)


def kernel() -> int:
    """The reference computation: interpreter work, then a numpy sort.
    Roughly the program's mix of Python bookkeeping and compiled code."""
    table: dict[int, int] = {}
    for value in range(5_000):
        key = value % 61
        table[key] = table.get(key, 0) + value * value
    np.sort(_SORTED)
    return len(table)


class HostSpeed:
    """Kernel times of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 3) -> None:
        for _ in range(times):
            started = perf_counter()
            kernel()
            self.samples.append(perf_counter() - started)

    def scale(self) -> float:
        """``REFERENCE_S`` over the run's median kernel time."""
        return REFERENCE_S / statistics.median(self.samples)
