"""Host-speed calibration for the chiralflow benchmark.

The benchmark runs on a few cores of a shared host, whose speed for the same
work drifts by up to 2x over seconds to minutes as other tenants come and go.
A pass's wall time alone therefore says as much about the host as about the
program.  This module times fixed kernels owned by the benchmark, each
milliseconds long, alongside every timed pass:

* in a block of ``BLOCK_S`` seconds after every pass (and one before the
  first), which runs the kernels in turn;
* with ``sample=True``, also during the pass: one kernel in turn from a
  ``SIGALRM`` handler every ``PERIOD`` seconds.  A handler runs only between
  Python bytecodes, so these samples cover the pass's Python-level time; a
  long LAPACK call gets at most one sample.

A set of samples gives the host's *slowdown*: the mean over kernels of the
kernel's median time divided by its time on the reference machine, taken
over windows of a few samples per kernel and combined over the windows.  The
slowdown during a pass is the in-pass slowdown, weighted by the share of the
pass its samples cover, plus the mean slowdown of the blocks before and after
it for the rest.  The pass's *reference wall time* is its wall time, less the
time spent sampling, divided by that slowdown: the time the pass would take
on the reference machine.  The program never runs the kernels, so a
change to the program moves the reference wall time by its own effect only.

Two kernel sets match the two kinds of work the workloads do:
``python_kernels`` for Python-level loops over small numpy problems, and
``lapack_kernels`` for large multithreaded LAPACK and BLAS calls.  The
reference times are the fastest of 400 runs on a 2-vCPU 2.0 GHz Xeon VM with
OpenBLAS on 2 threads; they set the scale of the reference wall time and
never change between runs.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.03
BLOCK_S = 0.3
WINDOW = 5


def python_kernels() -> list:
    """(kernel, reference seconds) pairs for Python-level work."""
    import numpy as np  # imported late: the harness sets BLAS threads first

    rng = np.random.default_rng(0)
    medium = rng.standard_normal((60, 60))
    medium = medium + medium.T
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    psi = np.ones(6, dtype=complex)
    eigh, cos = np.linalg.eigh, np.cos

    def python_loop():
        total = 0
        for i in range(10_000):
            total += i * i % 7

    def small_steps():
        v = psi
        for k in range(100):
            v = v + 0.01 * (-1j * (h * cos(0.1 * k) @ v))

    def medium_eigh():
        eigh(medium)

    return [(python_loop, 0.000613), (small_steps, 0.000626), (medium_eigh, 0.000433)]


def lapack_kernels() -> list:
    """(kernel, reference seconds) pairs for large LAPACK calls."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    hermitian = a + a.conj().T
    square = rng.standard_normal((500, 500))

    def large_eigh():
        np.linalg.eigh(hermitian)

    def matmul():
        square @ square

    return [(large_eigh, 0.0515), (matmul, 0.00236)]


KERNELS = {"python": python_kernels, "lapack": lapack_kernels}


class Calibration:
    def __init__(self, kernels: list, sample: bool = True):
        self.kernels = kernels
        self.sample = sample
        self._samples: list[list[float]] = []
        self._next = 0
        self.before = self.block()

    def _run_kernel(self) -> None:
        kernel, _ = self.kernels[self._next % len(self.kernels)]
        start = time.perf_counter()
        kernel()
        self._samples[self._next % len(self.kernels)].append(time.perf_counter() - start)
        self._next += 1

    def _slowdown(self) -> float:
        """Slowdown over the samples taken since the last reset.  They are cut
        into windows of WINDOW rounds, about half a second of a pass; each
        window's slowdown uses medians, so that one sample stretched by an
        interrupt does not count, and the windows combine harmonically, as
        the time they stand for adds up."""
        rounds = len(self._samples[0])
        weights = []
        for lo in range(0, rounds, WINDOW):
            window = [(times[lo:lo + WINDOW], ref)
                      for times, (_, ref) in zip(self._samples, self.kernels)]
            slowdown = statistics.fmean(statistics.median(times) / ref
                                        for times, ref in window if times)
            weights.append((sum(len(times) for times, _ in window), slowdown))
        return (sum(n for n, _ in weights)
                / sum(n / slowdown for n, slowdown in weights))

    def _reset(self) -> None:
        self._samples = [[] for _ in self.kernels]
        self._next = 0

    def block(self) -> float:
        """Slowdown over a block of at least BLOCK_S seconds."""
        self._reset()
        end = time.perf_counter() + BLOCK_S
        while self._next < 3 * len(self.kernels) or time.perf_counter() < end:
            self._run_kernel()
        return self._slowdown()

    def _sample(self, signum, frame) -> None:
        self._run_kernel()

    def measure(self, run) -> tuple[float, float, object]:
        """Run ``run()`` (with in-pass sampling if enabled), then a block.
        Returns the wall time less the sampling time, the reference wall
        time and what ``run`` returned."""
        self._reset()
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        start = time.perf_counter()
        try:
            result = run()
        finally:
            wall = time.perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        samples = self._next
        wall -= sum(sum(times) for times in self._samples)
        during = self._slowdown() if samples else 1.0
        after = self.block()
        covered = min(1.0, samples * PERIOD / wall) if wall > 0 else 0.0
        slowdown = covered * during + (1 - covered) * (self.before + after) / 2
        self.before = after
        return wall, wall / slowdown, result

    def skip(self) -> None:
        """Refresh the block before the next measured pass, after a pass that
        was not measured (a traced one)."""
        self.before = self.block()
