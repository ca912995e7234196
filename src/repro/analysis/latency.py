"""Nearest-rank latency summaries shared by the server stats and benches."""

from __future__ import annotations

from typing import Dict, Sequence


def percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[round(quantile * (len(sorted_values) - 1))]


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """Count, mean, p50, p99 and max of latencies given in seconds, in ms."""
    ordered = sorted(samples_s)
    count = len(ordered)
    return {
        "count": count,
        "mean_ms": (sum(ordered) / count * 1000.0) if count else 0.0,
        "p50_ms": percentile(ordered, 0.50) * 1000.0,
        "p99_ms": percentile(ordered, 0.99) * 1000.0,
        "max_ms": (ordered[-1] * 1000.0) if count else 0.0,
    }
