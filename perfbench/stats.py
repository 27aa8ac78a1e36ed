"""Order statistics used by the workloads and the steadiness report."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank *q* percentile of *values*; raises ``ValueError``
    when fewer than *min_beyond* samples lie beyond its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{round(100 * q)} of {len(ordered)} samples leaves {beyond} "
            f"beyond it; at least {min_beyond} are needed")
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness
    measure the benchmark's bounds are judged by)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf
