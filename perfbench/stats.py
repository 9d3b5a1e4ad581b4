"""Arithmetic of the benchmark: percentiles, tail rule, open-loop timing.

Percentiles use the nearest-rank definition: the ``q`` percentile of ``n``
sorted samples is the sample at rank ``ceil(q * n)``.  With that
definition "samples beyond the percentile" is exactly ``n - ceil(q * n)``,
which is what the tail rule counts: a tail percentile is reported only as
supported when at least :data:`MIN_BEYOND` samples lie beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: Samples that must lie beyond a tail percentile for it to be supported.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {q!r}")
    # The epsilon keeps q * n that is integral in exact arithmetic (0.9 * 100)
    # from rounding up one rank through binary floating point.
    return max(1, min(n, math.ceil(q * n - 1e-9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    return float(ordered[rank(len(ordered), q) - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly beyond the ``q`` percentile."""
    return n - rank(n, q)


def highest_supported(n: int) -> float:
    """The highest of p99.9/99/95/90/80/75 with ``MIN_BEYOND`` samples beyond it.

    Returns ``0.5`` when none has them (small samples).
    """
    for q in (0.999, 0.99, 0.95, 0.9, 0.8, 0.75):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 0.5


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def due_times(start: float, rate: float, count: int) -> List[float]:
    """Fixed-rate schedule: request ``i`` is due at ``start + i / rate``."""
    if rate <= 0:
        raise ValueError("an open-loop rate must be positive")
    return [start + i / rate for i in range(count)]


@dataclass(frozen=True)
class OpenLoopTiming:
    """Per-request timing of an open loop, all in seconds."""

    latency: List[float]    # done - due: includes waiting behind a stall
    service: List[float]    # done - sent: the request's own round trip
    lateness: List[float]   # sent - due: how late the generator sent it


def open_loop_timing(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> OpenLoopTiming:
    """Split open-loop timestamps into latency, service time and lateness.

    A request is timed from when it was *due*, so a stall that delays the
    sending of later requests is charged to them too.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done must be parallel")
    for d, s, e in zip(due, sent, done):
        if s < d or e < s:
            raise ValueError("a request cannot be sent early or finish before it is sent")
    return OpenLoopTiming(
        latency=[e - d for d, e in zip(due, done)],
        service=[e - s for s, e in zip(sent, done)],
        lateness=[s - d for d, s in zip(due, sent)],
    )


def lateness_report(lateness: Sequence[float], interval: float) -> Dict[str, float]:
    """Generator lateness: median, maximum, and share of requests sent late.

    A request counts as late when it left more than one schedule interval
    after its due time, i.e. the generator was still busy with an earlier
    request when it fell due.
    """
    if not lateness:
        return {"p50_ms": 0.0, "max_ms": 0.0, "late_share": 0.0}
    late = sum(1 for x in lateness if x > interval)
    return {
        "p50_ms": percentile(lateness, 0.5) * 1e3,
        "max_ms": max(lateness) * 1e3,
        "late_share": late / len(lateness),
    }
