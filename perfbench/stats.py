"""Summary arithmetic for the benchmark: medians, the tail rule, failure share.

Pure functions with no dependency on gbbkit, so the tests in
perfbench/tests can check them in isolation.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.  The reported tail is the
# highest one that still leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of an ascending list, and how many samples lie beyond it."""
    n = len(sorted_values)
    # The epsilon keeps float error (99.9 / 100 * 10000 > 9990) off the rank.
    rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest ladder percentile with
    at least TAIL_MIN_BEYOND samples beyond it.

    Raises ValueError when even the median leaves fewer than that many
    samples beyond it: such a run has too few samples to report a tail.
    """
    ordered = sorted(values)
    best = None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond < TAIL_MIN_BEYOND:
            break
        best = (value, pct, len(ordered))
    if best is None:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median"
        )
    return best


def per_item_medians(samples: list[list[float]]) -> list[float]:
    """Median latency of each item over the passes that timed it.

    Items with no successful sample (they failed every pass) are left out.
    """
    return [statistics.median(s) for s in samples if s]


def failed_frac(attempted: int, skipped: int, failed: int) -> float:
    """Items skipped or failed over items attempted.

    `failed` counts every item of an invocation that exited non-zero or
    failed an output check; `skipped` counts items the program itself
    reported as skipped in invocations that passed.
    """
    if attempted < 1:
        raise ValueError("no items attempted")
    return (skipped + failed) / attempted

