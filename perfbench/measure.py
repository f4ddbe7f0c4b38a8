"""Statistics the benchmark reports: percentiles, host speed, span self time."""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10
#: Candidate tail percentiles, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the ``p``-th percentile."""
    return count - math.ceil(count * p / 100.0 - 1e-9)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    for p in PERCENTILE_LADDER:
        if samples_beyond(count, p) >= MIN_BEYOND:
            return p
    return None


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- host speed ------------------------------------------------------------------

#: Seconds the calibration kernel takes on the 2-vCPU development host
#: (Intel Xeon, Python 3.11) in its slower speed mode.  Timings are
#: reported at this host speed: see :func:`host_factor`.
CALIBRATION_NOMINAL_S = 0.001


def calibration_kernel(n: int = 4000) -> int:
    """A fixed piece of interpreter work: dict, list, tuple and int
    operations, like the program's own.  It never changes, so its speed
    is the host's speed."""
    table: dict = {}
    items: list = []
    total = 0
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        if len(items) > 32:
            total += len(items)
            items.clear()
    return total


def calibrate(samples: int = 3) -> float:
    """Seconds the calibration kernel takes now: the fastest of
    ``samples`` back-to-back runs, which drops one that an interrupt or
    a garbage collection hit."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - started)
    return min(times)


def calibrate_each_cpu(samples: int = 3) -> float:
    """Mean calibration over every CPU this process may use, each
    measured pinned to it: the host speed seen by work spread over all
    of them (engine workers).  The affinity is restored afterwards."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate(samples))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Keep this process on its lowest usable CPU inside the block;
    yields that CPU.

    The vCPUs of a shared host differ in speed from moment to moment,
    and the scheduler moves a process between them every second or so.
    A serial run pinned to one CPU times its blocks and the calibrations
    next to them on the same CPU.
    """
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, cpus)


def host_factor(calibration_s: float) -> float:
    """Scale from a time measured next to ``calibration_s`` to the same
    time at nominal host speed.

    The shared host's speed changes between CPUs and drifts over
    minutes.  A time divided by the calibration kernel's time measured
    right next to it, on the same CPUs, stays the same when the host
    slows down, and a slower program still reads slower.
    """
    return CALIBRATION_NOMINAL_S / calibration_s


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in the tracer's list, or -1.
    parent: int = -1
    #: The item index (sampled mutant or fault) the span belongs to.
    item: int | None = None
    #: Free-form tag; boots record their outcome here.
    note: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident memory of this process plus the given children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids() -> list[int]:
    """Live child processes of this process (Linux ``/proc`` scan)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids
