"""Host-speed calibration: a small fixed kernel timed while a pass runs.

On a shared host the speed a process gets changes by 30% and more within
seconds, and every timing of the package changes with it. ``Ticker`` runs
a fixed kernel from a SIGALRM handler every ``INTERVAL_S`` of a pass, in the
pass's own interpreter, so the kernel samples the host's speed at the same
moments and on the same CPU as the package's own work.

Work of different kinds slows by different amounts, so there are two
kernels, and each workload names the one whose work is like its own
(``workloads.CALIBRATION``):

- ``interpreter``: a breadth-first search over tuple-keyed lamplighter
  states, the kind of work in the package's BFS, word reduction and
  lamplighter arithmetic, plus a few small numpy permutation compositions.
- ``gather``: compositions of permutations of 2**20 points held in int32
  arrays, the work of ``grigorchuk.level_permutation`` on a deep tree level.

The work a pass did is its time multiplied by the host's mean speed during
it, and the kernel's mean ``1 / tick time`` measures that mean speed.
``scale`` turns it into the factor that reports a pass in seconds of a host
on which one kernel call takes the kernel's reference time.

Set-up is scaled the same way, by the ``interpreter`` kernel timed right
after the import it measures: importing is interpreter work, and the speed
steps last longer than the import and the four kernel calls together.

The kernels import nothing from the package, so no change to the package
can move them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25
GATHER_POINTS = 1 << 20


def interpreter_kernel() -> int:
    """Fixed interpreter-bound work; returns a checksum."""
    width, modulus = 6, 3
    start = (0, (0,) * width)
    seen = {start: 0}
    frontier = [start]
    radius = 0
    while frontier:
        radius += 1
        nxt = []
        for pos, lamps in frontier:
            flipped = list(lamps)
            flipped[pos] = (flipped[pos] + 1) % modulus
            for state in ((pos + 1) % width, lamps), ((pos - 1) % width, lamps), (pos, tuple(flipped)):
                if state not in seen:
                    seen[state] = radius
                    nxt.append(state)
        frontier = nxt
    # composition of permutations of the 3**7 vertices of a tree level
    n = 3**7
    perm = np.arange(n)[::-1].copy()
    acc = np.arange(n)
    for _ in range(20):
        acc = perm[acc]
        perm = np.roll(perm, 7)
    return len(seen) + int(acc[:5].sum())


def gather_kernel() -> int:
    """Fixed work on large int32 permutation arrays; returns a checksum."""
    perm = np.arange(GATHER_POINTS, dtype=np.int32) ^ np.int32(GATHER_POINTS >> 1)
    cur = np.arange(GATHER_POINTS, dtype=np.int32)
    for _ in range(2):
        cur = perm[cur]
    return int(cur[:8].sum())


# kernel, its harmonic mean time on the reference host (a 2-vCPU Intel Xeon
# VM at 2.1 GHz with Python 3.11.7 and numpy 2.4.6), and its checksum
KERNELS = {
    "interpreter": (interpreter_kernel, 0.007, 4734),
    "gather": (gather_kernel, 0.0118, 28),
}


def timed(kind: str, count: int) -> list[float]:
    """Times ``count`` calls of one kernel, each checked against its checksum."""
    kernel, _, checksum = KERNELS[kind]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        result = kernel()
        times.append(time.perf_counter() - t0)
        if result != checksum:
            raise RuntimeError(f"calibration kernel returned {result}, expected {checksum}")
    return times


class Ticker:
    """Times one kernel every ``INTERVAL_S`` of wall time between start and stop.

    The handler runs in the main thread between bytecodes, so the package
    must run its work there (``--threads 1``).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, _, self.checksum = KERNELS[kind]
        self.times: list[float] = []
        self.results: list[int] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.results.append(self.kernel())
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        timed(self.kind, 3)  # warm-up; not recorded
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        wrong = [r for r in self.results if r != self.checksum]
        if wrong:
            raise RuntimeError(f"calibration kernel returned {wrong[0]}, expected {self.checksum}")


def scale(kind: str, times: list[float]) -> float:
    """Factor from this host's seconds to reference seconds, over one pass."""
    return KERNELS[kind][1] * sum(1 / t for t in times) / len(times)
