"""The machine's speed while an operation runs, from a kernel of the benchmark's own.

On a shared virtual machine the CPU itself runs faster or slower with the
load that the host's other guests put on it. On a 2-vCPU Xeon guest, the
kernel below took from 6 to 13 ms from one 0.1 s sample to the next, its
median over a 30-second run ranged from 7 to 12 ms between runs, and the
same grid rung, timed in CPU seconds, took 3.3 to 4.7 s. Timing the
program alone measures that drift as much as the program.

So while the timed phase and the setups run, a wall-clock timer interrupts
the program every PERIOD_S and times a short fixed kernel, about 10 ms of
CPU, in the signal handler. An operation's CPU time, less the time spent in
the kernel during it, is rescaled by REFERENCE_S / (the mean kernel time
over the operation, from the sample just before it to the one just after):
the result is the operation's time on a machine that runs the kernel in
REFERENCE_S. The drift cancels, and the program's own speed remains.

The kernel is dense Gaussian elimination over F_5, row by row with numpy:
the same mix of interpreter and array work as the program's `row_reduce`,
but written here and never calling the program, so a change to the program
cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.010   # kernel time that defines the reference speed
PERIOD_S = 0.1        # wall time between kernel samples
SIZE, P = 48, 5
MATRIX = np.random.default_rng(7).integers(0, P, size=(SIZE, SIZE), dtype=np.int64)


def kernel() -> int:
    """Reduce MATRIX to reduced row echelon form over F_P; return its rank."""
    m = MATRIX.copy()
    r = 0
    for c in range(SIZE):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, P)) % P
        for i in np.nonzero(m[:, c])[0]:
            if i != r:
                m[i] = (m[i] - m[i, c] * m[r]) % P
        r += 1
        if r == SIZE:
            break
    return r


RANK = kernel()   # also warms the kernel up before its first timing


class Speed:
    """Kernel samples taken every PERIOD_S while the context is entered.

    `spent_s` is the CPU time all samples took so far; a caller subtracts
    its growth over an interval from the CPU time it measured there.
    """

    reference_s = REFERENCE_S

    def __init__(self):
        self.ends: list[float] = []       # perf_counter() at the end of each sample
        self.kernel_s: list[float] = []   # CPU seconds of each sample
        self.spent_s = 0.0
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _sample(self, *_):
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.process_time()
            rank = kernel()
            elapsed = time.process_time() - start
        finally:
            self._sampling = False
        if rank != RANK:
            raise RuntimeError("calibration kernel gave another rank")
        self.ends.append(time.perf_counter())
        self.kernel_s.append(elapsed)
        self.spent_s += elapsed

    def scale(self, start: float, end: float) -> float:
        """Factor from CPU seconds spent between perf_counter() readings
        `start` and `end` to reference seconds. Call it after leaving the
        context, when the samples after `end` exist."""
        lo = max(bisect.bisect_left(self.ends, start) - 1, 0)
        hi = bisect.bisect_right(self.ends, end) + 1
        return REFERENCE_S / statistics.fmean(self.kernel_s[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.kernel_s)
