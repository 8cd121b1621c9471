"""Order statistics and the rules used to read them.

``tail`` is the highest whole percentile that has at least ten samples
beyond it (nearest rank), never below the median.  ``verdict`` applies the
comparison rules to two result sets of one workload and metric.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the tail of ``values``.

    Percentile q has rank ceil(q n / 100) and n - rank samples beyond it.
    With fewer than 2 * TAIL_BEYOND samples no percentile at or above the
    median has ten beyond it, and the median is returned as p50.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = min(99, 100 * (n - TAIL_BEYOND) // n)
    if q < 50:
        return statistics.median(ordered), 50, n
    return ordered[-(-q * n // 100) - 1], q, n


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent, change, better: str, bound: float) -> str:
    """Read one metric of one workload across two paired result sets.

    * ``gain``: the change wins at least 9 in 10 pairs (ties count for
      neither) and the medians differ by more than the parent's
      interquartile range.
    * ``regression``: the change's median is worse than the parent's by
      more than ``bound`` times the parent's median, and either both
      spreads are within the bound or every change run is worse than every
      parent run.
    * ``unresolved``: otherwise, when either side's spread exceeds the
      bound, unless every change run beats every parent run.
    * ``no regression``: none of the above.
    """
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    p1, p_med, p3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if (pairs and 10 * wins >= 9 * len(pairs) and _better(c_med, p_med, better)
            and abs(c_med - p_med) > p3 - p1):
        return "gain"
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    regressed = worse_by > bound * abs(p_med)
    if max(spread(parent), spread(change)) > bound:
        if regressed and all(_better(p, c, better) for c in change for p in parent):
            return "regression"
        if not all(_better(c, p, better) for c in change for p in parent):
            return "unresolved"
    return "regression" if regressed else "no regression"
