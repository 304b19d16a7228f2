"""Tests of the benchmark's own logic (run: python3 -m pytest perfbench/tests)."""

import math

import numpy as np
import pytest

from perfbench.stats import (
    Rung,
    beyond,
    max_rate_at_slo,
    nearest_rank,
    poisson_schedule,
    summarize,
    tail_percentile,
    windowed_summary,
)


def test_seeded_arrival_schedule_is_reproducible():
    a = poisson_schedule(2000.0, 3.0, seed=11)
    b = poisson_schedule(2000.0, 3.0, seed=11)
    c = poisson_schedule(2000.0, 3.0, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[: min(len(a), len(c))], c[: min(len(a), len(c))])
    assert np.all(np.diff(a) > 0) and a[0] >= 0 and a[-1] < 3.0
    assert abs(len(a) / 3.0 - 2000.0) < 0.05 * 2000.0


def test_nearest_rank_percentiles():
    vals = list(range(1, 101))  # 1..100
    assert nearest_rank(vals, 50) == 50
    assert nearest_rank(vals, 99) == 99
    assert nearest_rank(vals, 100) == 100
    assert nearest_rank([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


@pytest.mark.parametrize("n, q", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        assert beyond(n, q) >= 10


def test_summary_counts_misses_as_infinite_latency():
    lat = [1.0] * 985 + [float("inf")] * 15
    s = summarize(lat)
    assert (s.n, s.p50, s.tail_q) == (1000, 1.0, 99.0)
    assert math.isinf(s.tail)
    with pytest.raises(ValueError):
        summarize([1.0] * 5)


def test_windowed_summary_takes_the_median_window():
    # Three windows of 1000 samples whose tails are 5, 50 and 7 ms: one
    # bad window moves the median tail only to the middle window's.
    windows = []
    for tail in (5.0, 50.0, 7.0):
        w = [1.0] * 1000
        w[-11:] = [tail] * 11
        windows += w
    s = windowed_summary(windows, 3)
    assert (s.n, s.p50, s.tail, s.tail_q) == (3000, 1.0, 7.0, 99.0)


def _rung(rate, tail, backlog=0):
    return Rung(rate, rate, tail, backlog, 128, 25.0)


def test_ladder_climbs_until_the_first_miss():
    assert max_rate_at_slo([_rung(1, 3.0), _rung(2, 9.0), _rung(3, 30.0)]).rate == 2
    assert max_rate_at_slo([_rung(1, 3.0), _rung(2, 25.0)]).rate == 2  # at the limit passes
    # A rung above a failed one never counts, even if it passes.
    assert max_rate_at_slo([_rung(1, 3.0), _rung(2, 40.0), _rung(3, 4.0)]).rate == 1
    assert max_rate_at_slo([_rung(1, 30.0), _rung(2, 3.0)]) is None
    assert max_rate_at_slo([]) is None


def test_growing_backlog_fails_a_rung_within_the_latency_limit():
    assert not _rung(2, 3.0, backlog=129).passes
    assert _rung(2, 3.0, backlog=128).passes
    assert max_rate_at_slo([_rung(1, 3.0), _rung(2, 3.0, backlog=500)]).rate == 1


def test_train_mlp_trace_accounts_for_step_wall_time():
    from perfbench.train import COVERAGE_TOLERANCE, run_train_mlp

    res = run_train_mlp(seed=0, seconds=3, trace=True)
    assert res["correct"], res["details"]["checks"]
    layers = res["layers"]
    assert abs(layers["nn.step_coverage"] - 1.0) <= COVERAGE_TOLERANCE
    phases = sum(layers[f"nn.{p}_ms"] for p in ("data", "forward", "loss", "backward", "optim"))
    per_layer_fwd = sum(layers[f"nn.forward_ms.L{i}"] for i in range(4))
    per_layer_bwd = sum(layers[f"nn.backward_ms.L{i}"] for i in range(4))
    assert phases > 0
    assert per_layer_fwd <= layers["nn.forward_ms"] * 1.001
    assert per_layer_bwd == pytest.approx(layers["nn.backward_ms"], rel=1e-9)
