"""How fast the machine runs right now, measured next to the workload.

On a shared host the same code runs up to ~30% slower in one minute than
in the next (see the README's reference figures).  ``Pace`` times a fixed
kernel, which runs no ``cbnctrl`` code, between operations, about every
``every_s`` seconds of a run.  ``factor()`` is ``nominal_s / mean kernel
time``: time metrics multiplied by it are stated at the nominal pace, so
drift of the host cancels while a change in the program does not.

Two kernels: ``kernel`` is pure-Python work, for operations that run in
process; ``process_kernel`` starts a fresh interpreter that imports numpy,
for operations that are whole CLI processes, whose cost the in-process
kernel does not track.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from bisect import bisect
from time import perf_counter

#: the kernels' typical times on the machine the benchmark was written on
NOMINAL_S = 0.0008
PROCESS_NOMINAL_S = 0.16
EVERY_S = 0.02
#: samples around an operation that set its factor
NEAR = 8


def kernel() -> float:
    """Dictionary updates and float arithmetic, ~0.8 ms of interpreter work."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(2000):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] * 1e-9
    return total


def process_kernel() -> None:
    """A fresh interpreter that imports numpy, ~0.16 s."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Pace:
    def __init__(self, run=kernel, nominal_s: float = NOMINAL_S, every_s: float = EVERY_S):
        self.run, self.nominal_s, self.every_s = run, nominal_s, every_s
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample was taken
        self._last = perf_counter()

    def measure(self) -> float:
        """Time the kernel once; returns the seconds it took.  The garbage
        collector is held off meanwhile, so the program's heap cannot make
        the kernel look slower."""
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        self.run()
        spent = perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(spent)
        self.times.append(start)
        self._last = perf_counter()
        return spent

    def tick(self) -> float:
        """Time the kernel if ``every_s`` has passed since the last sample;
        returns the seconds spent (0.0 when not due)."""
        if perf_counter() - self._last < self.every_s:
            return 0.0
        return self.measure()

    def factor(self) -> float:
        if not self.samples:
            self.measure()
        return self.nominal_s / (sum(self.samples) / len(self.samples))

    def factor_at(self, when: float) -> float:
        """The factor from the ``NEAR`` samples taken closest to ``when``."""
        if not self.samples:
            self.measure()
        i = bisect(self.times, when)
        lo = max(0, min(i - NEAR // 2, len(self.samples) - NEAR))
        window = self.samples[lo:lo + NEAR]
        return self.nominal_s / (sum(window) / len(window))
