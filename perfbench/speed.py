"""How fast the host runs right now, measured with a fixed kernel.

The host this benchmark was written on is shared: the same code runs up to
twice as slowly for seconds to minutes at a time, and the process is not
descheduled meanwhile (its CPU time equals its wall time), so the
slowdown cannot be timed away.  The kernel below slows with it.  It is
fixed code of the benchmark, not of the program, so a change to the
program moves a time divided by the kernel's time by the same share as the
raw time, while the host's drift cancels.

The kernel mimics the two costs of the program: a Python loop of narrow
row updates, like a sweep of at most 64 columns, where the per-step
interpreter cost dominates, and a loop of elementwise ufuncs on a
1500-long array.  A pure-Python integer loop tracked the program's
slowdowns less well: over 24 interleaved ``solve`` and 48 ``eigfn`` calls,
the spread of the call time divided by the kernel time was 0.06 and 0.09
of its median with this kernel, 0.10 and 0.19 with the integer loop, and
0.29 and 0.43 for the raw call time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# one kernel run takes about 5 ms on the host of baseline.json; with one
# run every PERIOD_S the sampler costs about 3% of a call, and its time is
# taken out of the call's
PERIOD_S = 0.2
# kernel runs right after set-up, to rescale that process's set-up time
SETUP_SAMPLES = 5
NARROW_WIDTH = 32
NARROW_STEPS = 250
WIDE_LENGTH = 1500
WIDE_STEPS = 150


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes right now."""
    t = time.perf_counter()
    z = np.linspace(20.0, 2500.0, NARROW_WIDTH)
    h = 1.0 / NARROW_STEPS
    p = 1.0 - 0.5 * h * h * z
    q = h * (1.0 - h * h / 6.0 * z)
    s = -z * q
    Y = np.zeros((NARROW_STEPS + 1, NARROW_WIDTH))
    V = np.zeros((NARROW_STEPS + 1, NARROW_WIDTH))
    V[0] = 1.0
    for i in range(NARROW_STEPS):
        y = Y[i]
        v = V[i]
        g = 0.3 * Y[i // 2]
        Y[i + 1] = p * y + q * v + 0.1 * g
        V[i + 1] = s * y + p * v + 0.2 * g
    x = np.linspace(0.0, 1.0, WIDE_LENGTH)
    b = x + 1.0
    for _ in range(WIDE_STEPS):
        x = x * 0.999 + b * 0.001
        x = np.sin(x) + 0.5 * x
    return time.perf_counter() - t


class Sampler:
    """Runs the kernel from a SIGALRM timer every ``PERIOD_S`` while started.

    The handler runs in the main thread between bytecodes, so the samples
    fall through the timed calls at a steady rate.  ``samples`` keeps every
    kernel time; ``stop`` returns the time the handler took since ``start``,
    which the caller subtracts from its own timing.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(kernel_s())
        self._spent += time.perf_counter() - t

    def start(self) -> None:
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self._spent
