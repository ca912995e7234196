"""Latency and ratio summaries shared by every workload of the benchmark.

One helper, so every figure the benchmark prints is computed the same
way: nearest-rank percentiles over the raw samples, the sample count
beside each, and the highest percentile that still has at least
``MIN_BEYOND`` samples above it (a percentile with fewer samples beyond
it is one outlier away from a different value).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10
#: The tail every workload reports.  At a 15-second run each has the
#: samples for p90 or more, but across ten seeds on a shared 2-CPU
#: machine whose speed dips by ~27% for seconds at a time, p90 moved by
#: 15-24%, p95 and p99 by 15-89%, and p75 by 10-14%.
TAIL_PCT = 75.0


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` rank."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def supported_tail(count: int) -> Optional[float]:
    """The highest percentile of :data:`LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None``."""
    for pct in LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(
    samples: Sequence[float], tail_pct: float = TAIL_PCT
) -> Dict[str, object]:
    """Median and the ``tail_pct`` percentile of ``samples``, with the
    sample count and the highest percentile the count supports.

    The tail percentile is fixed so it means the same thing on every
    run; ``tail_supported`` says whether this run had enough samples
    for it.
    """
    ordered = sorted(samples)
    if not ordered:
        return {
            "count": 0,
            "p50": 0.0,
            "iqm": 0.0,
            "tail_pct": tail_pct,
            "tail": 0.0,
            "tail_supported": False,
            "highest_supported_pct": None,
            "supported": {},
        }
    highest = supported_tail(len(ordered))
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 50.0),
        "iqm": interquartile_mean(ordered),
        "tail_pct": tail_pct,
        "tail": percentile(ordered, tail_pct),
        "tail_supported": beyond(len(ordered), tail_pct) >= MIN_BEYOND,
        "highest_supported_pct": highest,
        "supported": {
            pct: percentile(ordered, pct)
            for pct in LADDER
            if beyond(len(ordered), pct) >= MIN_BEYOND
        },
    }


def interquartile_mean(samples: Sequence[float]) -> float:
    """Mean of the middle half of the samples (0.0 for an empty sample).

    The central figure every workload reports.  On a machine that slows
    down for seconds at a time, a run's samples mix a fast and a slow
    mode; the median jumps between the modes as the share of slow time
    crosses one half, while this mean moves with the share.
    """
    ordered = sorted(samples)
    count = len(ordered)
    middle = ordered[count // 4 : count - count // 4]
    return sum(middle) / len(middle) if middle else 0.0


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median (0.0 for an empty sample)."""
    return percentile(sorted(samples), 50.0) if samples else 0.0


def ratio(part: float, whole: float) -> Dict[str, float]:
    """``part / whole`` with both base counts kept beside it."""
    return {
        "ratio": part / whole if whole else 0.0,
        "part": part,
        "whole": whole,
    }
