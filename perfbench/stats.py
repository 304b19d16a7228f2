"""Pure statistics of the benchmark: percentiles, arrivals, the SLO ladder.

Nothing here reads a clock or touches the library, so every rule the
benchmark reports by is unit-tested in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

# Percentiles a tail may be reported at, highest first.  A latency is
# reported as its median plus the highest of these that still has at
# least MIN_BEYOND samples strictly above its rank.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sequence."""
    if not len(sorted_values):
        raise ValueError("no samples")
    return float(sorted_values[_rank(len(sorted_values), q) - 1])


def beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """Highest reportable percentile for ``n`` samples (None if none)."""
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


@dataclass(frozen=True)
class LatencySummary:
    """Median and tail of one set of latencies (ms); ``inf`` is a miss."""

    n: int
    p50: float
    tail: float
    tail_q: float

    def as_dict(self) -> Dict[str, float]:
        return {"n": self.n, "p50": self.p50, "tail": self.tail, "tail_q": self.tail_q}


def summarize(latencies_ms: Sequence[float]) -> LatencySummary:
    """Median plus highest supported tail; raises if ``n`` supports none."""
    vals = sorted(float(v) for v in latencies_ms)
    q = tail_percentile(len(vals))
    if q is None:
        raise ValueError(f"{len(vals)} samples support no tail percentile")
    return LatencySummary(len(vals), nearest_rank(vals, 50.0), nearest_rank(vals, q), q)


def windowed_summary(latencies_ms: Sequence[float], windows: int) -> LatencySummary:
    """Split samples (in arrival order) into ``windows`` equal slices and
    report the median over slices of each slice's p50 and tail.

    A tail read from ten samples wanders from run to run; the median of
    several slice tails is the steadier figure the bounds can hold to.
    Every slice reports at the same percentile (the smallest slice's).
    """
    vals = list(latencies_ms)
    if windows < 1:
        raise ValueError("windows must be >= 1")
    slices = [s for s in np.array_split(np.asarray(vals, dtype=float), windows) if len(s)]
    q = tail_percentile(min(len(s) for s in slices))
    if q is None:
        raise ValueError("slices too small for a tail percentile")
    p50s, tails = [], []
    for s in slices:
        srt = sorted(s.tolist())
        p50s.append(nearest_rank(srt, 50.0))
        tails.append(nearest_rank(srt, q))
    return LatencySummary(len(vals), float(np.median(p50s)), float(np.median(tails)), q)


def poisson_schedule(rate: float, duration_s: float, seed) -> np.ndarray:
    """Seeded open-loop arrival offsets (s) in ``[0, duration_s)``.

    Exponential inter-arrival gaps at ``rate`` per second: independent
    users, so the schedule never waits on the system under test.  ``seed``
    is anything ``numpy.random.default_rng`` accepts (an int or a list
    of ints).
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    n_draw = int(rate * duration_s + 10 * math.sqrt(rate * duration_s) + 10)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n_draw))
    while offsets[-1] < duration_s:  # astronomically rare; stay exact anyway
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n_draw))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration_s]


@dataclass(frozen=True)
class Rung:
    """Outcome of one fixed offered rate on the SLO ladder."""

    rate: float            # offered requests/s
    achieved: float        # completed-within-limit requests/s
    tail_ms: float         # tail latency from due time (misses are inf)
    backlog: int           # typical requests without an outcome during arrivals
    backlog_limit: int     # largest backlog that counts as "not growing"
    limit_ms: float

    @property
    def passes(self) -> bool:
        return self.tail_ms <= self.limit_ms and self.backlog <= self.backlog_limit


def max_rate_at_slo(rungs: List[Rung]) -> Optional[Rung]:
    """Highest rung of an ascending ladder reached without a failure.

    The ladder is climbed in order and stops at the first rung that
    misses the limit or leaves a growing backlog; a rung above a failed
    one never counts, even if noise lets it pass.
    """
    best = None
    for rung in rungs:
        if not rung.passes:
            break
        best = rung
    return best

