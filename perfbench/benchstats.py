"""Summary statistics and span arithmetic of the benchmark.

Pure functions over plain numbers and span documents, so the tests can
exercise them on synthetic data.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles worth reporting next to a median, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def reportable_percentile(n: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least
    :data:`TAIL_SAMPLES` of ``n`` samples beyond it, or ``None`` when
    only the median may be reported."""
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= TAIL_SAMPLES:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"median", "n"}`` plus ``"p<P>"`` when a percentile is
    reportable under the tail rule."""
    out = {"median": median(values), "n": len(values)}
    p = reportable_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"])
        - _covered(children[i], span["start"], span["end"])
        for i, span in enumerate(spans)
    ]


def layer_totals(document: dict) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per-name self-time sums, per-name span counts, and the duration
    of the root span (the first one without a parent) of one unit's
    span document."""
    spans = document["spans"]
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    root = next(s for s in spans if s["parent"] is None)
    for span, own in zip(spans, selfs):
        totals[span["name"]] += own
        calls[span["name"]] += 1
    return dict(totals), dict(calls), root["end"] - root["start"]
