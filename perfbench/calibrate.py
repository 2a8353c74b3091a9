"""Host-speed calibration for the benchmark's timings.

Shared virtual machines, such as the 2-core x86-64 VM this benchmark was
introduced on, share physical cores with other tenants.  Its speed flips
between a fast and a slow regime (pure-Python code runs up to ~1.8x slower
in the slow one, BLAS ~1.5x), sometimes within a second, sometimes for
minutes.  Every timing the benchmark reports is therefore scaled to a
reference speed, op by op.

Two fixed kernels share no code with torsionlab, so a change to the library
cannot move them: ``python_kernel`` (~1 ms of exact fractions, integers,
lists and dicts, the kind of work torsionlab does in Python) and
``native_kernel`` (~0.4 ms of LAPACK ``eigh`` and a BLAS product).  Both run
just before and just after every op.  A background ``Sampler`` also wakes
every ``PERIOD_S``: when the main thread holds the interpreter lock it is
running Python, and the sampler times ``python_kernel`` there and then; when
the lock is free the main thread is in native code, and the wake-up only
counts towards the op's native share.  An op's time is scaled as

    measured * (python share * python factor + native share * native factor)

with each factor ``REFERENCE / kernel time``.  The references are the
kernels' times on the benchmark's first host in its fast regime; only ratios
between runs carry meaning.  Raw timings are kept in the report line.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

import numpy as np

PYTHON_REFERENCE_S = 0.001
NATIVE_REFERENCE_S = 0.0004
PERIOD_S = 0.05
BUSY_LATE_S = 0.001  # waking this late means the main thread held the lock

_N = 96
_SYM = np.cos(np.add.outer(np.arange(_N), np.arange(_N)) * 0.37) + _N * np.eye(_N)


def python_kernel():
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
    a = [[Fraction(i - j, i + j + 1) for j in range(5)] for i in range(5)]
    b = [list(col) for col in zip(*a)]
    prod = [[sum(x * y for x, y in zip(row, col)) for col in b] for row in a]
    table = {}
    for i in range(1500):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i * i
    return acc, prod, sum(table.values())


def native_kernel():
    _, v = np.linalg.eigh(_SYM)
    return float(np.trace(v @ v.T))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def warm_up(runs=20):
    """Run the kernels until the interpreter has specialized their bytecode."""
    for _ in range(runs):
        python_kernel()
        native_kernel()


class Sampler:
    """Background wake-ups that see what the main thread runs, and how fast.

    The thread holds the interpreter lock only for its ~1 ms Python kernel,
    so it costs the ops about 2%; the same on every run.  Use as a context
    manager; ``note`` and ``scale`` are called from the main thread.
    """

    def __init__(self):
        self.wakes = []  # perf_counter of each wake-up, increasing
        self.kernel = []  # python_kernel seconds at that wake-up, None if the lock was free
        self.recent_python = []  # kernel samples the main thread took between ops
        self.recent_native = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        due = time.perf_counter() + PERIOD_S
        while not self._stop.wait(max(0.0, due - time.perf_counter())):
            now = time.perf_counter()
            held = now - due >= BUSY_LATE_S
            due = max(due + PERIOD_S, now)
            # With the lock free, the main thread is in native code on the
            # other core and a kernel run would contend with it.
            self.kernel.append(_timed(python_kernel) if held else None)
            self.wakes.append(now)

    def __enter__(self):
        warm_up()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def note(self):
        """Take one sample of each kernel in the main thread, between ops."""
        for recent, fn in ((self.recent_python, python_kernel),
                           (self.recent_native, native_kernel)):
            recent.append(_timed(fn))
            del recent[:-6]

    def scale(self, t0, t1):
        """Factor for an op that ran from t0 to t1, between two ``note`` calls.

        The Python factor comes from the sampler's kernel runs during the op,
        plus the notes just before and after it; an op too short to have any
        uses the median of the last six notes, which damps one interrupted
        sample.  The native factor always comes from the recent notes.
        """
        lo = bisect.bisect_left(self.wakes, t0)
        hi = bisect.bisect_right(self.wakes, t1)
        during = self.kernel[lo:hi]
        timed = [t for t in during if t is not None]
        if timed:
            py = statistics.mean(timed + self.recent_python[-2:])
        else:
            py = statistics.median(self.recent_python)
        native = statistics.median(self.recent_native)
        python_share = (len(timed) + 1) / (len(during) + 1)
        return (python_share * PYTHON_REFERENCE_S / py
                + (1.0 - python_share) * NATIVE_REFERENCE_S / native)
