"""Statistics of the benchmark: medians, quartiles, tail percentiles, span
self times, and the verdict rules used when two result sets are compared.

Quartiles are those of Python's ``statistics.quantiles(values, n=4)``.
"""

import math
import statistics


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 for a single value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(values, p):
    """The p-th percentile (0..100), linearly interpolated between the
    closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values, min_beyond=10):
    """The highest of TAIL_PERCENTILES with at least `min_beyond` samples
    above it, as (p, value); None when there are too few samples."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p), 6) >= 100 * min_beyond:
            return p, percentile(values, p)
    return None


def self_times(spans):
    """Self time of every span: its duration minus the part its child spans
    cover.  `spans` is a list of (name, t0, t1, parent, run) with parent an
    index into the list or -1.  Children of one span never overlap (a
    single thread records them), so their durations add."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, run in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


VERDICTS = ("improved", "within bound", "unresolved", "worse")


def verdict(parent, change, better, bound):
    """Compares two sets of runs of one end-to-end metric.

    - improved: the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ by more than the parent's
      own quartile distance;
    - unresolved: the run-to-run spread of either side is wider than the
      bound, unless every run of the change reads better than every run of
      the parent;
    - worse: the change's median is worse than the parent's by more than
      the bound (a share of the parent's median);
    - within bound: otherwise.

    Runs are paired in the order given.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(pairs) and gain > (p_q3 - p_q1) and gain > 0:
        return "improved"
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    return "within bound"
