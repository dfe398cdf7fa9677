"""Timings scaled to a nominal machine speed, from reference timings.

On a shared machine the speed of the CPU a process gets swings by a factor
of two within seconds, and a run of half a minute can fall in a slow or a
fast stretch.  Medians inside a run do not remove that.  So the benchmark
times a fixed reference right before and right after every timed call, and
scales the call's time by ``nominal / t_ref``, where ``t_ref`` is the mean of
those two reference times: each timing is reported as it would be at the
speed at which the reference takes its nominal time.

* In-process calls are bracketed by ``reference_kernel``, pure Python of the
  same kind as the package (integer and float arithmetic, tuples, a ``math``
  call, a list).  On a 2-CPU shared machine the raw time of a ``selfcheck``
  round swung by ±30% over a minute and the scaled time by ±5% (4-second
  medians).
* Fresh ``dualq`` processes are bracketed by the start of a bare
  interpreter (``python -c pass``), since the in-process kernel does not
  track what a new process meets.  This cut the quartile spread of 30 process
  times from 0.34 to 0.13 of their median.

Neither reference calls the package, so no change to the package moves it.
The unscaled timings are recorded beside the scaled ones.
"""

from __future__ import annotations

import gc
import math
import subprocess
import time

# Round figures near the medians on the machine the bounds were set on.
KERNEL_NOMINAL_S = 0.5e-3
PROCESS_NOMINAL_S = 60e-3
ITERATIONS = 800
WARM_UP_CALLS = 3


def reference_kernel() -> float:
    state = 12345
    out = []
    for _ in range(ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        value = state / 2147483648.0
        out.append((value * math.sqrt(value + 1.0), -value))
    return math.fsum(a for a, _ in out)


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def bare_interpreter(python: str, cwd: str):
    """A reference that times the start of ``python -c pass``."""

    def time_start() -> float:
        start = time.perf_counter()
        subprocess.run([python, "-c", "pass"], cwd=cwd, capture_output=True, timeout=60, check=True)
        return time.perf_counter() - start

    return time_start


class Gauge:
    """Brackets timed calls with a reference.

    Call ``scale(elapsed)`` right after each timed call: it times the
    reference once more and returns ``elapsed`` scaled by the mean of the
    reference times just before and just after the call.  Call ``restart()``
    after anything else ran since the last timed call.
    """

    def __init__(self, time_reference=time_kernel, nominal_s: float = KERNEL_NOMINAL_S):
        self._time_reference = time_reference
        self._nominal_s = nominal_s
        for _ in range(WARM_UP_CALLS):
            time_reference()
        self.reference: list[float] = []
        self.restart()

    def restart(self) -> None:
        self._before = self._time_reference()

    def scale(self, elapsed: float) -> float:
        after = self._time_reference()
        reference = 0.5 * (self._before + after)
        self._before = after
        self.reference.append(reference)
        return elapsed * self._nominal_s / reference
