"""Percentiles, the tail rule, resource usage of the benchmark process,
and the host-speed probe that scales its timings."""

from __future__ import annotations

import ctypes
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest-rank position of the ``p``-th percentile of ``n``."""
    # Integer arithmetic in tenths of a percent: 99.9 / 100 * 10000 is
    # 9990.000000000002 in floating point, which would round up a rank.
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest ladder percentile with at least ``min_beyond`` of ``n``
    samples ranked above it, or ``None`` when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= min_beyond:
            best = p
    return best


def tail(values: Sequence[float]) -> Tuple[float, Optional[float], int]:
    """``(value, percentile, samples beyond)`` of the tail of ``values``.

    With too few samples for any ladder percentile the maximum is
    reported, at percentile ``None``.
    """
    p = tail_percentile(len(values))
    if p is None:
        return max(values), None, 0
    return percentile(values, p), p, len(values) - _rank(p, len(values))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Usage:
    """Wall and CPU seconds (self plus reaped children) over a phase."""

    wall_s: float
    cpu_s: float


class Meter:
    """Wall clock and ``getrusage`` CPU of this process and its children.

    CPU covers every thread of the process (BLAS threads included) and
    every child process that has exited and been waited for.
    """

    def __enter__(self) -> "Meter":
        self._cpu0 = _cpu_now()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.usage = Usage(
            wall_s=time.perf_counter() - self._wall0,
            cpu_s=_cpu_now() - self._cpu0,
        )


def _cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap pages back to the system.

    Run between set-up and the measured phase: how much of the set-up's
    freed heap glibc keeps varies from run to run by ~50 MB, and it
    would count toward the measured phase's peak RSS.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


def peak_rss_mb() -> Tuple[float, float]:
    """Peak resident memory, in MiB, of this process and of its largest
    reaped child (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


#: Seconds :func:`probe` takes on an unloaded 2-vCPU x86-64 Xeon virtual
#: machine at 2.0 GHz; scaled timings read as if measured there.
REFERENCE_PROBE_S = 0.040

_PROBE_DATA = np.random.default_rng(0).standard_normal(200_000)


def probe() -> float:
    """Wall seconds of a fixed single-threaded task: an interpreter loop,
    sorts and element-wise maths on a 1.6 MB array.  It calls nothing of
    the program, so only the host's speed moves it."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    for _ in range(12):
        np.sort(_PROBE_DATA)
    for _ in range(30):
        np.exp(_PROBE_DATA).sum()
    return time.perf_counter() - start


@dataclass
class HostSpeed:
    """How slow the host ran over one benchmark run.

    On a shared host the same work can take 1.7x longer for minutes at
    a time, in CPU seconds as much as in wall seconds.  The run times
    :func:`probe` in short bursts between its measured units, and
    :attr:`slowdown` — the median probe over :data:`REFERENCE_PROBE_S` —
    rescales its timings to the reference host's speed.
    """

    samples: List[float] = field(default_factory=list)

    def sample(self, n: int = 5) -> None:
        self.samples += [probe() for _ in range(n)]

    @property
    def slowdown(self) -> float:
        return median(self.samples) / REFERENCE_PROBE_S
