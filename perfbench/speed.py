"""Speed gauge: scales measured times to a fixed reference speed of the machine.

The shared virtual machine this benchmark was built on runs the same code
up to twice as slowly from one moment to the next, in phases of seconds to
minutes (user time tracks wall time, steal is about 0.5%), so raw wall
times of identical runs spread by 20-30% and no run length averages the
phases out.  The gauge times a fixed small loop that uses nothing of
mu_lab (``op_kernel``; ``python_kernel`` where numpy must not be imported
yet) every ``INTERVAL_S`` of wall time while an op runs, from a
``SIGALRM`` handler, and once at either end of the op.  Each sample gives
the machine's speed relative to the reference, the kernel's ``REF_S``
over the sample's time; an op's time at the reference speed is its
measured time, less the gauge's own time inside it, times the mean
relative speed of its samples.  A change to mu_lab moves these times as it
moves wall time; the machine's phases move them far less.  ``REF_S`` is
about each kernel's time, run alone, in the machine's fast phase.  Inside
an op the kernel also finds the caches as the op left them, so the scale
differs by workload (flagship's large arrays slow it most): compare scaled
times of one workload only, and read a change to an op's memory traffic in
the per-layer wall times as well.

Signal handlers run between bytecodes of the main thread, so a sample due
during a long numpy call is taken when the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1


def python_kernel() -> int:
    """Interpreter arithmetic, calls, str and dict work."""
    acc = 0.0
    for i in range(1250):
        acc += i * 0.5
    seen = {}
    for i in range(360):
        seen[i % 7] = len(str(i))
    return int(acc) + len(seen)


def op_kernel() -> int:
    """``python_kernel`` plus numpy calls on tiny arrays, which the machine's phases slow most.

    About 0.4 of its time goes to ``python_kernel`` and 0.6 to the numpy
    calls: of five candidate loops and their mixes, timed during ops of all
    three workloads, this mix's speed tracked the op times best.
    """
    import numpy as np  # here, so that importing this module leaves numpy's import to the set-up probe

    x = np.linspace(0.0, 1.0, 8)
    for _ in range(120):
        x = np.sin(x) * 0.5 + 0.1
    return python_kernel() + int(x[0])


# each kernel's time in the machine's fast phase (its 10th percentile over
# 2000 samples on the 2-vCPU Xeon VM the baseline was measured on)
REF_S = {python_kernel: 1.4e-4, op_kernel: 3.8e-4}


class Gauge:
    """Context manager sampling the machine's relative speed while it is open.

    ``inside_wall`` and ``inside_cpu`` are the gauge's own wall and CPU
    seconds taken by samples while the timer was armed; the two edge
    samples are taken before it is armed and after it is disarmed.
    """

    def __init__(self, interval: float = INTERVAL_S, kernel=op_kernel):
        self.interval = interval
        self.kernel = kernel
        self.speeds: list = []
        self.inside_wall = 0.0
        self.inside_cpu = 0.0
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.speeds.append(REF_S[self.kernel] / (time.perf_counter() - t0))

    def _on_alarm(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.sample()
        self.inside_wall += time.perf_counter() - t0
        self.inside_cpu += time.process_time() - c0

    def __enter__(self) -> "Gauge":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def speed(self) -> float:
        """Mean speed relative to the reference over the samples so far."""
        return statistics.fmean(self.speeds)

    def at_reference(self, wall: float, cpu: float) -> tuple:
        """(wall, cpu) of work measured inside the gauge, scaled to the reference speed."""
        scale = self.speed()
        return (wall - self.inside_wall) * scale, (cpu - self.inside_cpu) * scale
