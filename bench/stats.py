"""Arithmetic the benchmark reports with: percentiles, paired ratios, verdicts.

Pure Python on purpose: the tests are exact arithmetic, and the module can be
imported before numpy (``bench/__main__.py`` pins BLAS threads first).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a timing may be reported at, highest first, each with the
#: share of samples beyond it in thousandths (integers keep the rule exact).
TAIL_LADDER = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250))
#: A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(count: int) -> Optional[float]:
    """Highest percentile of :data:`TAIL_LADDER` with >= 10 samples beyond it."""
    for q, beyond_per_mille in TAIL_LADDER:
        if count * beyond_per_mille >= MIN_BEYOND * 1000:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, the highest supported percentile, and the sample count."""
    tail_q = supported_tail(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) if tail_q is not None else None,
    }


def blocked_percentile(values: Sequence[float], q: float, block: int = 200) -> float:
    """Median over consecutive blocks of ``block`` samples of each block's percentile.

    A tail percentile over a whole run is set by the one moment the host
    stalled; the typical block's tail is what the program itself produces.
    200 samples are the fewest that leave ten beyond the 95th percentile.  A
    trailing partial block is dropped unless it is the only one.
    """
    blocks = [values[start:start + block] for start in range(0, len(values), block)]
    if len(blocks) > 1 and len(blocks[-1]) < block:
        blocks.pop()
    return percentile([percentile(chunk, q) for chunk in blocks], 50.0)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def paired_ratio(base: Sequence[float], other: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of ``base[i] / other[i]`` (same-round pairs)."""
    if len(base) != len(other):
        raise ValueError(f"paired samples differ in length: {len(base)} vs {len(other)}")
    ratios = [b / o for b, o in zip(base, other)]
    q1, median, q3 = quartiles(ratios)
    return {"n": len(ratios), "median": median, "q1": q1, "q3": q3}


def worsening(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: it improved)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if first == 0:
        change = 0.0 if second == 0 else math.copysign(math.inf, second)
    else:
        change = (second - first) / abs(first)
    return change if better == "lower" else -change


def verdict(first: Sequence[float], second: Sequence[float],
            better: str, bound: float) -> Dict[str, object]:
    """Compare two run sets of one metric on one workload.

    ``unresolved`` when either set's own spread exceeds the bound (the bound
    cannot be checked against noise that wide), ``worse`` when the second
    median is worse than the first by more than the bound, else
    ``within bound``.
    """
    median_a = statistics.median(first)
    median_b = statistics.median(second)
    widest = max(spread(first), spread(second))
    worse_by = worsening(median_a, median_b, better)
    if widest > bound:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "within bound"
    return {"verdict": outcome, "first": median_a, "second": median_b,
            "worse_by": worse_by, "spread": widest, "bound": bound}
