"""Unit tests for the rolling-window health core and the SLO engine.

Everything here runs on an injected clock — no sleeps, no wall time: the
window estimator, the delta-feeding discipline and the burn-rate math are
all driven by explicit ``now`` values.
"""

from __future__ import annotations

import pytest

from repro.service.health import (
    DEFAULT_WINDOWS,
    HEALTH_SCHEMA,
    SLO,
    HealthMonitor,
    RollingWindow,
    default_slos,
    evaluate_slos,
    slo_burn,
)
from repro.service.metrics import (
    LATENCY_BUCKET_BOUNDS_MS,
    LATENCY_OVERFLOW_BOUND_MS,
    LatencyHistogram,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> float:
        self.t += seconds
        return self.t


def bucket_of(value_ms: float) -> int:
    """The index of the one bucket a single recorded sample lands in."""

    histogram = LatencyHistogram()
    histogram.record(value_ms)
    return histogram.buckets.index(1)


class TestLatencyBuckets:
    def test_bucket_index_uses_inclusive_upper_bounds(self):
        assert bucket_of(0.0) == 0
        assert bucket_of(1.0) == 0
        assert bucket_of(1.0001) == 1
        assert bucket_of(500.0) == 8
        assert bucket_of(10000.0) == len(LATENCY_BUCKET_BOUNDS_MS) - 1

    def test_overflow_bucket_reports_the_conventional_cap(self):
        histogram = LatencyHistogram()
        histogram.record(99999.0)
        assert histogram.buckets.index(1) == len(LATENCY_BUCKET_BOUNDS_MS)
        assert histogram.quantile(100.0) == LATENCY_OVERFLOW_BOUND_MS

    def test_quantile_empty_histogram_is_zero(self):
        assert LatencyHistogram().quantile(99.0) == 0.0

    def test_quantile_nearest_rank_on_known_counts(self):
        histogram = LatencyHistogram()
        for _ in range(98):
            histogram.record(1.0)  # <= 1ms
        for _ in range(2):
            histogram.record(500.0)  # <= 500ms
        assert histogram.quantile(50.0) == 1.0
        assert histogram.quantile(98.0) == 1.0
        assert histogram.quantile(99.0) == 500.0
        assert histogram.quantile(100.0) == 500.0


class TestRollingWindow:
    def test_aggregate_only_covers_the_trailing_window(self):
        clock = FakeClock(0.0)
        window = RollingWindow(bucket_seconds=1.0, capacity_seconds=60.0, clock=clock)
        window.increment("received", now=0.5)
        window.increment("received", now=5.5)
        window.increment("received", now=9.5)
        # A 5s window at t=9.5 covers buckets 5..9: the event at 0.5 is out.
        aggregate = window.aggregate(5.0, now=9.5)
        assert aggregate.counts["received"] == 2.0
        # The full 10s window still sees all three.
        assert window.aggregate(10.0, now=9.5).counts["received"] == 3.0

    def test_gauges_track_window_maxima(self):
        window = RollingWindow(bucket_seconds=1.0, capacity_seconds=10.0)
        window.observe_gauge("queue_depth", 3.0, now=0.2)
        window.observe_gauge("queue_depth", 7.0, now=0.8)
        window.observe_gauge("queue_depth", 2.0, now=1.2)
        aggregate = window.aggregate(10.0, now=1.5)
        assert aggregate.gauges["queue_depth"] == 7.0
        # Once the 7.0 bucket ages out, the max drops.
        assert window.aggregate(1.0, now=1.5).gauges["queue_depth"] == 2.0

    def test_buckets_are_pruned_beyond_capacity(self):
        window = RollingWindow(bucket_seconds=1.0, capacity_seconds=5.0)
        window.increment("received", now=0.0)
        for t in range(1, 20):
            window.increment("received", now=float(t))
        assert len(window._buckets) <= window.capacity_buckets + 1

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            RollingWindow(bucket_seconds=0.0)
        with pytest.raises(ValueError):
            RollingWindow(bucket_seconds=2.0, capacity_seconds=1.0)


class TestHealthMonitor:
    def make(self, **kwargs):
        clock = FakeClock()
        monitor = HealthMonitor(
            counters=("received", "completed", "errors"),
            gauges=("queue_depth",),
            clock=clock,
            **kwargs,
        )
        return monitor, clock

    def test_unknown_counter_and_gauge_raise(self):
        monitor, _clock = self.make()
        with pytest.raises(ValueError):
            monitor.increment("no_such_counter")
        with pytest.raises(ValueError):
            monitor.observe_gauge("no_such_gauge", 1.0)

    def test_feed_counters_is_delta_based(self):
        monitor, clock = self.make()
        monitor.feed_counters({"received": 10, "completed": 10})
        clock.advance(1.0)
        monitor.feed_counters({"received": 14, "completed": 13})
        sample = monitor.sample()
        counts = sample["windows"]["fast"]["counts"]
        assert counts["received"] == 14
        assert counts["completed"] == 13
        clock.advance(1.0)
        # No movement: no new increments land.
        monitor.feed_counters({"received": 14, "completed": 13})
        counts = monitor.sample()["windows"]["fast"]["counts"]
        assert counts["received"] == 14

    def test_feed_counters_handles_a_reset(self):
        monitor, clock = self.make()
        monitor.feed_counters({"received": 10})
        clock.advance(1.0)
        # The cumulative value went backwards (a restarted metrics object):
        # count the new value from zero rather than a negative delta.
        monitor.feed_counters({"received": 3})
        counts = monitor.sample()["windows"]["fast"]["counts"]
        assert counts["received"] == 13

    def test_undeclared_fed_names_are_ignored(self):
        monitor, _clock = self.make()
        monitor.feed_counters({"received": 1, "something_else": 99})
        counts = monitor.sample()["windows"]["fast"]["counts"]
        assert "something_else" not in counts

    def test_sample_shape_and_rates(self):
        monitor, clock = self.make(queue_limit=64)
        monitor.feed_counters({"received": 20, "completed": 18, "errors": 2})
        for _ in range(18):
            monitor.observe_latency(3.0)
        monitor.observe_gauge("queue_depth", 12.0)
        clock.advance(0.25)
        sample = monitor.sample()
        assert sample["schema"] == HEALTH_SCHEMA
        assert sample["queue_limit"] == 64
        assert set(sample["windows"]) == {label for label, _ in DEFAULT_WINDOWS}
        fast = sample["windows"]["fast"]
        assert fast["seconds"] == 10.0
        assert fast["counts"]["received"] == 20
        assert fast["latency"]["count"] == 18
        assert fast["latency"]["p50"] == 5.0  # 3ms lands in the (2, 5] bucket
        assert fast["gauges"]["queue_depth"] == 12.0
        assert fast["rates"]["qps"] == round(18 / 10.0, 6)
        assert fast["rates"]["error_rate"] == 0.1
        assert fast["rates"]["availability"] == 0.9

    def test_no_traffic_availability_is_one(self):
        monitor, _clock = self.make()
        rates = monitor.sample()["windows"]["fast"]["rates"]
        assert rates == {"qps": 0.0, "error_rate": 0.0, "availability": 1.0}

    def test_sample_t_is_relative_to_monitor_start(self):
        monitor, clock = self.make()
        clock.advance(2.5)
        assert monitor.sample()["t"] == 2.5


def make_window_payload(received=0, completed=0, errors=0, latency_buckets=None):
    buckets = latency_buckets or [0] * (len(LATENCY_BUCKET_BOUNDS_MS) + 1)
    return {
        "seconds": 10.0,
        "counts": {"received": received, "completed": completed, "errors": errors},
        "latency": {"count": sum(buckets), "buckets": buckets},
        "gauges": {},
        "rates": {},
    }


class TestSLO:
    def test_latency_threshold_must_be_a_bucket_bound(self):
        SLO(name="ok", kind="latency", threshold=500.0)
        with pytest.raises(ValueError):
            SLO(name="bad", kind="latency", threshold=300.0)

    def test_invalid_kinds_and_ranges_rejected(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="throughput", threshold=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="error_rate", threshold=2.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="availability", threshold=0.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="error_rate", threshold=0.1, burn_threshold=0.0)

    def test_latency_burn_math(self):
        slo = SLO(name="p99", kind="latency", threshold=500.0, target=0.99)
        buckets = [0] * (len(LATENCY_BUCKET_BOUNDS_MS) + 1)
        buckets[0] = 98  # fast
        buckets[10] = 2  # 2000ms: slower than the 500ms threshold
        payload = make_window_payload(latency_buckets=buckets)
        # 2% bad against a 1% budget = burn 2.0.
        assert slo_burn(slo, payload) == 2.0

    def test_error_rate_and_availability_burn_math(self):
        err = SLO(name="err", kind="error_rate", threshold=0.01)
        avail = SLO(name="avail", kind="availability", threshold=0.995)
        payload = make_window_payload(received=100, completed=98, errors=2)
        assert slo_burn(err, payload) == 2.0
        assert slo_burn(avail, payload) == 4.0

    def test_no_traffic_burns_nothing(self):
        for slo in default_slos():
            assert slo_burn(slo, make_window_payload()) == 0.0

    def test_alarm_requires_both_windows_burning(self):
        slo = SLO(name="err", kind="error_rate", threshold=0.01, burn_threshold=2.0)
        burning = make_window_payload(received=100, completed=0, errors=50)
        quiet = make_window_payload(received=100, completed=100, errors=0)
        # Fast window burning alone: no alarm (a spike, not a trend).
        sample = {"windows": {"fast": burning, "slow": quiet}}
        report = evaluate_slos([slo], sample)
        assert report["err"]["fast_burn"] >= 2.0
        assert report["err"]["alarm"] is False
        # Both windows burning: alarm.
        sample = {"windows": {"fast": burning, "slow": burning}}
        assert evaluate_slos([slo], sample)["err"]["alarm"] is True

    def test_missing_window_contributes_zero_burn(self):
        slo = SLO(name="err", kind="error_rate", threshold=0.01)
        burning = make_window_payload(received=100, errors=50)
        report = evaluate_slos([slo], {"windows": {"fast": burning}})
        assert report["err"]["slow_burn"] == 0.0
        assert report["err"]["alarm"] is False

    def test_default_slos_cover_the_three_kinds(self):
        kinds = {slo.kind for slo in default_slos()}
        assert kinds == {"latency", "error_rate", "availability"}
