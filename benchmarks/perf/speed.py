"""Host-speed calibration for every time the benchmark reports.

Virtual CPUs on shared hosts change speed by up to about 2x, per CPU,
for seconds to minutes at a time (other tenants on the same cores),
which no repetition within a run averages out.  So each process that
does measured work is pinned to one CPU, fixed pure-Python loops are
timed on that CPU while the measured code runs (by a sampler pinned
there when the measured process is another one), and times are reported
at a reference speed::

    reported = wall seconds x REF_S / (median sample CPU seconds)

The loops touch no ``repro`` code, so no change to the program under
test can move them; they are timed with the thread's CPU clock, so being
preempted does not count.  Raw wall times are reported beside.

    python speed.py CPU PERIOD    # sampler: "perf_counter loop_time" lines
"""

from __future__ import annotations

import bisect
import heapq
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Optional

#: CPU seconds one sample takes at the reference speed (about the fast
#: state of a 2 GHz Xeon vCPU under CPython 3.11, sampled inside a run).
REF_S = 0.00033


class _Item:
    __slots__ = ("key", "x", "peer")

    def __init__(self, k: int) -> None:
        self.key = ("item", k)
        self.x = 0
        self.peer: "_Item" = self


_ITEMS = [_Item(k) for k in range(4096)]
for _k, _it in enumerate(_ITEMS):
    _it.peer = _ITEMS[(_k * 613) % 4096]
_INDEX = {it.key: it for it in _ITEMS}


def _arithmetic() -> float:
    t0 = time.thread_time()
    d: dict[int, float] = {}
    acc = 0.0
    for i in range(2_000):
        d[i & 1023] = acc
        acc = acc + (i % 7) * 0.5
    return time.thread_time() - t0


def _objects() -> float:
    t0 = time.thread_time()
    heap: list[tuple[int, int]] = []
    for i in range(400):
        item = _ITEMS[(i * 37) & 4095].peer
        item.x = (item.x + i) & 0xFFFF
        _INDEX[item.key].x += 1
        heapq.heappush(heap, (item.x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.thread_time() - t0


def loop_time() -> float:
    """CPU seconds of one sample: the geometric mean of two probe loops.

    The probes bracket the simulator: across a shared CPU's slow and fast
    states an arithmetic loop's time moves more than the simulator's and
    a loop over slotted objects, tuple-keyed dicts and a heap moves about
    as much or less; their geometric mean follows it more closely than
    either.
    """
    return math.sqrt(_arithmetic() * _objects())


def loop_median(k: int = 9, cpu: Optional[int] = None) -> float:
    """Median of ``k`` samples: the speed now, for a single interval, of
    ``cpu`` (from a thread pinned there) or else of this thread's CPU."""
    if cpu is None:
        return statistics.median(loop_time() for _ in range(k))
    out: list[float] = []

    def body() -> None:
        os.sched_setaffinity(0, {cpu})  # on Linux, 0 is the calling thread
        out.append(loop_median(k))

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    return out[0]


def pin_cpu() -> Optional[int]:
    """Keep this process (and the ones it starts) on its lowest CPU.

    Returns another CPU it may use (for a server that should not share a
    CPU with its load generator), or None.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1] if len(cpus) > 1 else None


def scaled(wall: float, loop_s: float) -> float:
    """``wall`` seconds at the reference speed, given the loop time beside it."""
    return wall * REF_S / loop_s


class Sampler:
    """Times the loop every PERIOD wall seconds inside ``with``.

    A SIGALRM handler runs the loop between the measured code's
    bytecodes, so the samples see the CPU as that code did; the
    handler's own time is subtracted from the wall time.  Main thread
    only.
    """

    PERIOD = 0.05

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.overhead = 0.0
        self._old: Any = None

    def _tick(self, _signum: int, _frame: Any) -> None:
        t0 = time.perf_counter()
        self.loops.append(loop_time())
        self.overhead += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, wall: float) -> float:
        """``wall`` (measured around the ``with``) at the reference speed."""
        loops = self.loops or [loop_median()]
        return scaled(wall - self.overhead, statistics.median(loops))


class SpeedLog:
    """Loop times sampled over a phase, for intervals within it.

    Inside ``with``, a sampler process on ``cpu`` (the CPU the measured
    process runs on; None: this process's) samples every PERIOD
    seconds.  A process, not a thread: a sampling thread preempted on a
    busy CPU while holding this process's interpreter lock would stall
    this process.  ``perf_counter`` is the system's monotonic clock, so
    its times are this process's.  The speed at time t is the median of
    the samples within WINDOW seconds of t (the nearest sample when none
    is).
    """

    PERIOD = 0.1
    WINDOW = 0.3

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.cpu = cpu
        self.times: list[float] = []
        self.loops: list[float] = []
        self.proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None

    def _read(self, proc: subprocess.Popen) -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            t, loop = line.split()
            self.times.append(float(t))
            self.loops.append(float(loop))

    def __enter__(self) -> "SpeedLog":
        cpu = -1 if self.cpu is None else self.cpu
        self.proc = subprocess.Popen([sys.executable, __file__, str(cpu), str(self.PERIOD)],
                                     stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, args=(self.proc,), daemon=True)
        self._reader.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        assert self.proc is not None and self._reader is not None
        self.proc.terminate()
        self.proc.wait()
        self._reader.join()
        assert self.proc.stdout is not None
        self.proc.stdout.close()

    def loop_at(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - self.WINDOW)
        hi = bisect.bisect_right(self.times, t + self.WINDOW)
        if lo < hi:
            return statistics.median(self.loops[lo:hi])
        i = min(max(0, lo - 1), len(self.loops) - 1)
        j = min(lo, len(self.loops) - 1)
        return self.loops[i] if abs(self.times[i] - t) <= abs(self.times[j] - t) else self.loops[j]

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed length of the wall interval [t0, t1]."""
        if not self.loops:
            raise ValueError("no calibration samples")
        cuts = [t0, *self.times[bisect.bisect_right(self.times, t0):
                                bisect.bisect_left(self.times, t1)], t1]
        return sum(scaled(b - a, self.loop_at((a + b) / 2)) for a, b in zip(cuts, cuts[1:]))


def _sample_forever(cpu: int, period: float) -> None:
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    while True:
        loop = loop_time()
        print(f"{time.perf_counter()!r} {loop!r}", flush=True)
        time.sleep(period)


if __name__ == "__main__":
    _sample_forever(int(sys.argv[1]), float(sys.argv[2]))
