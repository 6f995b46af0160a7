"""Summary statistics shared by the benchmark runner and its self-tests."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    that leaves at least TAIL_BEYOND samples above it.

    With TAIL_BEYOND samples or fewer no percentile qualifies; the maximum
    is returned as the 100th percentile with 0 samples beyond it.
    """
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = count - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / count, TAIL_BEYOND


def line_gaps(stamps: Sequence[float]) -> List[float]:
    """Gaps between consecutive result-line timestamps of one child."""
    return [b - a for a, b in zip(stamps, stamps[1:])]


def covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: the span's duration minus what its children cover.

    Each span is (name, start, end, parent, run_id); `parent` indexes the
    same list, -1 for a root.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [end - start - covered(children.get(i, ()), start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def outer_totals(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total seconds per span name; a span nested inside a span of the
    same name is already inside that total and is not added again."""
    totals: Dict[str, float] = {}
    for name, start, end, parent, _ in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
