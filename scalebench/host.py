"""Host-speed record and the environment block.

This machine's speed swings by up to 2x within seconds, and it swings in
ways a loop timed next to an op does not see. So the reference loop runs
*during* the op: a timer signal interrupts the op every ``INTERVAL``
seconds and times one short pass of the loop. The op's wall time, less
the time spent in those passes, divided by their median (``wall_rel``)
cancels what the host did meanwhile. The loop never calls scaledet. Its
mix follows the ops: dict and float churn in Python, plus a walk through
a heap of small objects in shuffled order, which slows down like the
ops' own object graphs when the caches are contended.
"""

from __future__ import annotations

import os
import platform
import random
import signal
import statistics
import time
from pathlib import Path

import numpy as np

INTERVAL = 0.05
# About the reference loop's time on a 2-core Xeon VM; it turns a time
# divided by the loop's time back into seconds.
REFERENCE_CALIB_S = 0.002
_HEAP_OBJECTS = 100_000
_HEAP_STEP = 1_000


class _Item:
    __slots__ = ("lo", "hi", "score", "key")

    def __init__(self, i: int):
        self.lo = float(i * 7919 % 1392)
        self.hi = self.lo + 10.0 + i % 90
        self.score = (i * 2654435761 % 1000) / 1000.0
        self.key = i % 509


class HostSampler:
    """Times the reference loop before and, by timer signal, during an op.

    Use as a context manager around the op; ``samples`` holds the loop's
    times and ``spent`` the seconds taken from the op by the signal handler.
    """

    def __init__(self):
        items = [_Item(i) for i in range(_HEAP_OBJECTS)]
        random.Random(_HEAP_OBJECTS).shuffle(items)
        self._heap = items
        self._cursor = 0
        self.reset()

    def reset(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def reference_loop(self) -> float:
        """One pass of the fixed loop (about 2 ms); returns its seconds."""
        start = time.perf_counter()
        table: dict[int, tuple[float, float]] = {}
        total = 0.0
        for i in range(1_500):
            pair = (i * 0.5, (i % 97) + 1.0)
            table[i % 512] = pair
            total += pair[0] / pair[1]
        first = self._cursor
        self._cursor = (first + _HEAP_STEP) % (_HEAP_OBJECTS - _HEAP_STEP)
        groups: dict[int, list[float]] = {}
        for item in self._heap[first:first + _HEAP_STEP]:
            overlap = min(item.hi, 700.0) - max(item.lo, 300.0)
            if overlap > 0.0:
                total += overlap
            groups.setdefault(item.key, []).append(item.score)
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.reference_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples.append(self.reference_loop())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def calib_s(self) -> float:
        return statistics.median(self.samples)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: Path) -> str:
    """File-system type of the mount that holds ``path``."""
    best, fs = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                fs_type = fields[fields.index("-") + 1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs = mount, fs_type
    except (OSError, ValueError, IndexError):
        pass
    return fs


def environment(work: Path) -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "work_dir_fs": _fs_type(work.resolve()),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }
