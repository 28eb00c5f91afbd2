"""Shared plumbing for the benchmark: the run record, statistics, hygiene.

A :class:`Run` collects what one invocation measured (metrics with unit
and sample count), what it checked (attempted and failed operations) and
what ran (the resolved configuration).  Workload modules fill it in; the
entry point (``run.py``) prints it.
"""

from __future__ import annotations

import inspect
import os
import resource
import statistics
import time
import traceback

#: Environment variables that would override the library defaults.  The
#: benchmark measures the defaults, so they are cleared before ``repro``
#: is imported.
OVERRIDE_ENV = (
    "REPRO_VALUE_STORE",
    "REPRO_OBS",
    "REPRO_LINT",
    "REPRO_TIMELINE_CODEC",
)

#: Every hub request and every sweep is bounded by this many seconds, so
#: one stuck operation becomes a failed op instead of a hung run.
OP_TIMEOUT_S = 60.0

#: Seconds :func:`_reference_job` takes on the host the bounds were set on
#: (2 vCPUs of a shared x86-64 machine, Python 3.11).
REFERENCE_S = 0.0085


def clear_overrides() -> None:
    for key in OVERRIDE_ENV:
        os.environ.pop(key, None)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _reference_job() -> int:
    """A fixed pure-Python job: integer arithmetic, list indexing and dict
    stores, the operations generated simulation code is made of."""
    x = 0
    table = {}
    lanes = list(range(64))
    for i in range(40_000):
        x = (x * 31 + lanes[i & 63]) & 0xFFFFFFFF
        table[i & 255] = x
    return x


def slowdown() -> float:
    """How much slower than the reference host this host runs right now:
    the best of three runs of :func:`_reference_job` over
    :data:`REFERENCE_S`."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_job()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


def source_line(cls, text: str) -> tuple[str, int]:
    """``(file, line)`` of the first line of ``cls``'s module holding
    ``text``: breakpoints are placed by source text, not by line number,
    so an edit above the statement does not move the benchmark."""
    path = inspect.getsourcefile(cls)
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if text in line:
                return path, number
    raise LookupError(f"{text!r} not found in {path}")


class Deadline:
    """A phase's time budget on the monotonic clock."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()

    def expired(self) -> bool:
        return time.perf_counter() >= self.end


class Run:
    """What one benchmark invocation measured, checked and ran."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict[str, object] = {}
        self.speed: list[float] = []

    def sample_speed(self) -> None:
        """Record the host's current :func:`slowdown`.  Workloads call this
        between samples; the run's median scales its timed metrics."""
        self.speed.append(slowdown())

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a false ``ok`` is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str, exc: BaseException) -> None:
        """Count one operation that raised."""
        text = "".join(traceback.format_exception_only(type(exc), exc))
        self.check(False, f"{what}: {text.strip()}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
