"""Summary statistics and the rule that compares a parent and a change."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

TAIL_BEYOND = 10
#: Pairs of parent and change runs a verdict needs.
PAIRS = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  The tail never sits below
    the median: with fewer than 2 * TAIL_BEYOND + 1 samples it is the upper
    median, and fewer than TAIL_BEYOND samples lie beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


WIN, SAME, REGRESSION, UNRESOLVED = "win", "same", "regression", "unresolved"


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float,
            parent_failed: int, change_failed: int) -> Tuple[str, dict]:
    """Apply the comparison rule to paired runs of one metric.

    parent[i] and change[i] are the i-th pair, of at least PAIRS pairs;
    parent_failed and change_failed are the items each side failed over
    all its runs.  A win needs the change to fail no more items than the
    parent, to be better in at least nine tenths of the pairs (ties count
    for neither) and its median to beat the parent's by more than the
    parent's interquartile range.  Otherwise the metric is unresolved when either
    side's spread is wider than the bound, unless every change run beats
    every parent run; a regression when the change's median is worse than
    the parent's by more than the bound; else the same.
    """
    if len(parent) != len(change) or len(parent) < PAIRS:
        raise ValueError(f"need the same number (at least {PAIRS}) of parent and change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = sign * (cmed - pmed)
    detail = {
        "pairs": len(parent), "wins": wins,
        "parent_median": pmed, "change_median": cmed,
        "parent_iqr": pq3 - pq1, "parent_spread": spread(parent),
        "change_spread": spread(change), "bound": bound,
        "parent_failed": parent_failed, "change_failed": change_failed,
    }
    if (change_failed <= parent_failed and wins * 10 >= 9 * len(parent)
            and gain > pq3 - pq1):
        return WIN, detail
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if max(detail["parent_spread"], detail["change_spread"]) > bound and not all_better:
        return UNRESOLVED, detail
    if -gain > bound * abs(pmed):
        return REGRESSION, detail
    return SAME, detail


def alternating_order(pairs: int) -> List[Tuple[str, str]]:
    """Which side runs first in each pair: parent first on even pairs."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent")
            for i in range(pairs)]
