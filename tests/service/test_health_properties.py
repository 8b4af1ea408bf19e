"""Property tests: the rolling-window estimator vs brute-force recomputation.

The estimator's documented contract: a window of ``W`` seconds evaluated
at time ``now`` covers exactly the buckets with index in
``[floor(now/bs) - span + 1, floor(now/bs)]`` where
``span = max(1, round(W/bs))``, and a windowed quantile equals the fixed
bucket bound of the true nearest-rank sample among the covered events.
Hypothesis draws whole event streams (counter increments, latency samples
and gauge readings at arbitrary injected-clock times) and the brute-force
oracle recomputes every aggregate from the raw events.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.health import HealthMonitor, RollingWindow
from repro.service.metrics import (
    LATENCY_BUCKET_BOUNDS_MS,
    LATENCY_OVERFLOW_BOUND_MS,
    LatencyHistogram,
)

BUCKET_SECONDS = 1.0
CAPACITY_SECONDS = 120.0

#: One event: (time, kind, value).
events_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=90.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(["count", "latency", "gauge"]),
        st.floats(min_value=0.0, max_value=30000.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=60,
)

window_seconds_strategy = st.sampled_from([1.0, 3.0, 10.0, 30.0, 60.0])


def covered(event_time: float, now: float, window_seconds: float) -> bool:
    """Brute-force membership: is the event's bucket inside the window?"""

    span = max(1, round(window_seconds / BUCKET_SECONDS))
    current = math.floor(now / BUCKET_SECONDS)
    index = math.floor(event_time / BUCKET_SECONDS)
    return current - span + 1 <= index <= current


def bucket_bound(value: float) -> float:
    """The bound of the first bucket holding ``value`` (overflow last)."""

    return next(
        (bound for bound in LATENCY_BUCKET_BOUNDS_MS if value <= bound),
        LATENCY_OVERFLOW_BOUND_MS,
    )


def brute_force_quantile(values, percent: float) -> float:
    """Nearest-rank quantile over raw values, reported at bucket resolution."""

    if not values:
        return 0.0
    ordered = sorted(bucket_bound(v) for v in values)
    rank = max(1, math.ceil(percent * len(ordered) / 100.0))
    return ordered[rank - 1]


@settings(deadline=None, max_examples=80)
@given(events=events_strategy, window_seconds=window_seconds_strategy)
def test_window_aggregate_matches_brute_force(events, window_seconds):
    events = sorted(events, key=lambda event: event[0])
    window = RollingWindow(
        bucket_seconds=BUCKET_SECONDS, capacity_seconds=CAPACITY_SECONDS
    )
    for t, kind, value in events:
        if kind == "count":
            window.increment("received", 1.0, now=t)
        elif kind == "latency":
            window.observe_latency(value, now=t)
        else:
            window.observe_gauge("queue_depth", value, now=t)
    now = events[-1][0] if events else 0.0
    aggregate = window.aggregate(window_seconds, now=now)

    in_window = [e for e in events if covered(e[0], now, window_seconds)]
    expected_counts = sum(1 for e in in_window if e[1] == "count")
    latencies = [e[2] for e in in_window if e[1] == "latency"]
    gauges = [e[2] for e in in_window if e[1] == "gauge"]

    assert aggregate.counts.get("received", 0.0) == expected_counts
    assert aggregate.latency.count == len(latencies)
    for percent in (50.0, 90.0, 95.0, 99.0, 100.0):
        assert aggregate.latency.quantile(percent) == brute_force_quantile(latencies, percent)
    if gauges:
        assert aggregate.gauges["queue_depth"] == max(gauges)
    else:
        assert "queue_depth" not in aggregate.gauges
    # The rate is exactly count / configured window length.
    assert aggregate.rate("received") == expected_counts / window_seconds


@settings(deadline=None, max_examples=80)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=50000.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    ),
    percent=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
def test_histogram_quantile_equals_nearest_rank_at_bucket_resolution(values, percent):
    histogram = LatencyHistogram()
    for value in values:
        histogram.record(value)
    assert histogram.quantile(percent) == brute_force_quantile(values, percent)


@settings(deadline=None, max_examples=40)
@given(
    feeds=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),  # dt between feeds
            st.integers(min_value=0, max_value=50),  # received delta
            st.integers(min_value=0, max_value=50),  # completed delta
        ),
        min_size=1,
        max_size=30,
    )
)
def test_monitor_delta_feed_totals_match_brute_force(feeds):
    """Cumulative counters delta-fed at arbitrary times: the windowed sum
    equals the brute-force sum of the deltas landing inside the window."""

    class Clock:
        t = 0.0

        def __call__(self):
            return self.t

    clock = Clock()
    monitor = HealthMonitor(
        counters=("received", "completed"),
        windows=(("fast", 10.0), ("slow", 60.0)),
        clock=clock,
    )
    cumulative_received = 0
    cumulative_completed = 0
    raw = []  # (t, received_delta, completed_delta)
    for dt, d_received, d_completed in feeds:
        clock.t += dt
        cumulative_received += d_received
        cumulative_completed += d_completed
        raw.append((clock.t, d_received, d_completed))
        monitor.feed_counters(
            {"received": cumulative_received, "completed": cumulative_completed}
        )
    sample = monitor.sample()
    for label, seconds in (("fast", 10.0), ("slow", 60.0)):
        expected_received = sum(
            d for t, d, _ in raw if covered(t, clock.t, seconds)
        )
        expected_completed = sum(
            d for t, _, d in raw if covered(t, clock.t, seconds)
        )
        counts = sample["windows"][label]["counts"]
        assert counts["received"] == expected_received
        assert counts["completed"] == expected_completed
