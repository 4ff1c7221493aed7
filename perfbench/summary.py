"""Arithmetic shared by the benchmark's parts: reference seconds, the tail
percentile rule and span self times."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

TAIL_LEVEL = 0.99
TAIL_BEYOND = 10
# One reference second is the time of 40 reference loops, each 25 ms on an
# idle core of the development host.
REF_NOMINAL_S = 0.025


def reference_seconds(seconds: float, samples: Sequence[float]) -> float:
    """`seconds` of wall time in reference seconds: scaled by the reference
    loop's nominal over its mean duration sampled alongside, so that time
    on a core slowed by contention counts less."""
    return seconds * REF_NOMINAL_S / statistics.fmean(samples)


def tail_rank(count: int, level: float = TAIL_LEVEL, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """1-based nearest rank of the highest percentile, at most `level`, that
    leaves at least `beyond` samples above it; None when no rank does."""
    rank = min(math.ceil(level * count), count - beyond)
    return rank if rank >= 1 else None


def tail(values: Sequence[float]) -> float:
    """The tail percentile of `values` by tail_rank; with too few samples
    for any rank to leave ten beyond it, the median stands in."""
    xs = sorted(values)
    rank = tail_rank(len(xs))
    return statistics.median(xs) if rank is None else xs[rank - 1]


def self_times(
    parent: Sequence[int], start: Sequence[float], end: Sequence[float]
) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are listed in order of start time; parent[i] is the index of span
    i's parent, or -1 for a root.  Children that overlap one another (spans
    from several threads) are counted once, and a child is clipped to its
    parent's interval.
    """
    covered = [0.0] * len(parent)
    reach: dict[int, float] = {}
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), end[i])
    return [e - s - c for s, e, c in zip(start, end, covered)]
