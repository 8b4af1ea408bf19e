"""Metrics-layer tests: histograms, counters, snapshot and shared shapes."""

from __future__ import annotations

import json

from repro.cache.store import CompileCache
from repro.service.metrics import (
    LatencyHistogram,
    ServiceMetrics,
    cache_stats_payload,
)


class TestLatencyHistogram:
    def test_empty_histogram_reports_zeros(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.quantile(50) == 0.0
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0

    def test_percentiles_on_known_data(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):  # 1..100 ms
            histogram.record(float(value))
        assert histogram.quantile(50) == 50.0
        assert histogram.quantile(95) == 100.0
        assert histogram.quantile(99) == 100.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 100.0
        assert histogram.mean == 50.5

        # Nearest rank is ceil(p * n / 100): the 3rd of 5 samples is the
        # median.  Rounding 2.5 to even would pick the 2nd (0.5 ms, bucket
        # 1.0) instead.
        histogram = LatencyHistogram()
        for value in (0.5, 0.5, 3.0, 3.0, 3.0):
            histogram.record(value)
        assert histogram.quantile(50) == 5.0

    def test_merge_equals_recording_both_streams(self):
        first, second, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for value in (0.2, 7.0, 7.0, 450.0):
            first.record(value)
            both.record(value)
        for value in (3.0, 25000.0):
            second.record(value)
            both.record(value)
        first.merge(second)
        first.merge(LatencyHistogram())
        assert first.buckets == both.buckets
        assert first.summary() == both.summary()

    def test_summary_keys(self):
        histogram = LatencyHistogram()
        histogram.record(5.0)
        assert sorted(histogram.summary()) == sorted(
            ["count", "mean", "min", "max", "p50", "p95", "p99"]
        )


class TestServiceMetrics:
    def test_snapshot_shape_and_serializability(self):
        metrics = ServiceMetrics()
        metrics.received = 10
        metrics.completed = 8
        metrics.coalesced = 3
        metrics.cache_hits = 2
        metrics.record_batch(4)
        metrics.record_batch(2)
        metrics.observe_queue_depth(5)
        metrics.latency_ms.record(12.0)
        snapshot = metrics.snapshot(queue_depth=1)
        assert snapshot["schema"] == "service-stats/v1"
        assert snapshot["requests"]["coalesced"] == 3
        assert snapshot["rates"]["coalesce_rate"] == round(3 / 8, 4)
        assert snapshot["rates"]["cache_hit_rate"] == round(2 / 8, 4)
        assert snapshot["batches"] == {"dispatched": 2, "mean_size": 3.0, "max_size": 4}
        assert snapshot["queue"] == {"depth": 1, "peak_depth": 5}
        assert "cache" not in snapshot  # cacheless server omits the section
        json.dumps(snapshot)

    def test_rates_with_zero_completed_do_not_divide_by_zero(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["rates"]["coalesce_rate"] == 0.0
        assert snapshot["rates"]["cache_hit_rate"] == 0.0


class TestCacheStatsPayload:
    def test_shape_matches_cli_json_contract(self, tmp_path):
        cache = CompileCache(tmp_path / "store")
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.get("ab" + "0" * 62)
        cache.get("cd" + "0" * 62)  # miss
        payload = cache_stats_payload(cache)
        assert sorted(payload) == sorted(
            [
                "hits",
                "misses",
                "hit_rate",
                "stores",
                "evictions",
                "corrupt",
                "entries",
                "disk_bytes",
            ]
        )
        assert payload["hits"] == 1
        assert payload["misses"] == 1
        assert payload["stores"] == 1
        assert payload["entries"] == 1
        assert payload["disk_bytes"] > 0

    def test_cli_cache_stats_json_uses_the_same_shape(self, tmp_path, capsys):
        from repro.cli import main

        cache = CompileCache(tmp_path / "store")
        cache.put("ab" + "0" * 62, {"x": 1})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "store"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == str(tmp_path / "store")
        assert sorted(payload["cache"]) == sorted(cache_stats_payload(cache))
        assert payload["cache"]["entries"] == 1


def flat_keys(payload, prefix=""):
    """Every key path of a nested snapshot dict, in insertion order."""

    keys = []
    for key, value in payload.items():
        keys.append(prefix + key)
        if isinstance(value, dict):
            keys.extend(flat_keys(value, f"{prefix}{key}."))
    return keys


def summary_keys(name):
    return [name] + [
        f"{name}.{stat}" for stat in ("count", "mean", "min", "max", "p50", "p95", "p99")
    ]


#: The ``service-stats/v1`` key paths ``ServiceMetrics.snapshot`` writes.
SERVICE_STATS_KEYS = (
    ["schema", "uptime_seconds", "requests"]
    + [
        f"requests.{name}"
        for name in (
            "received", "completed", "errors", "protocol_errors",
            "rejected_overloaded", "rejected_shed", "rejected_shutting_down",
            "coalesced", "cache_hits", "compiled",
        )
    ]
    + ["rates", "rates.qps", "rates.coalesce_rate", "rates.cache_hit_rate"]
    + ["batches", "batches.dispatched", "batches.mean_size", "batches.max_size"]
    + ["queue", "queue.depth", "queue.peak_depth"]
    + summary_keys("latency_ms")
    + summary_keys("queue_ms")
    + summary_keys("compile_ms")
    + ["cache", "cache.hits"]
)

#: The ``router`` key paths of ``fleet-stats/v1`` (``RouterMetrics.snapshot``).
ROUTER_STATS_KEYS = (
    [
        "uptime_seconds", "received", "completed", "errors", "protocol_errors",
        "rejected_shutting_down", "tier_hits", "coalesced", "forwarded", "rerouted",
        "shard_deaths", "wedged", "qps",
    ]
    + summary_keys("latency_ms")
)


class TestSnapshotKeys:
    def test_service_stats_keys_and_order_are_pinned(self):
        snapshot = ServiceMetrics().snapshot(cache_stats={"hits": 0})
        assert flat_keys(snapshot) == SERVICE_STATS_KEYS

    def test_router_stats_keys_and_order_are_pinned(self):
        from repro.service.fleet import RouterMetrics

        assert flat_keys(RouterMetrics().snapshot()) == ROUTER_STATS_KEYS


class TestOneHistogram:
    def test_lifetime_window_and_text_quantiles_agree(self):
        """One latency stream recorded into the lifetime histogram and the
        windowed monitor: the slow window covers the whole stream, so both
        report the same nearest-rank bucket bounds, and the metrics-text
        rendering carries those numbers unchanged."""

        from repro.service.health import (
            HealthMonitor,
            parse_metrics_text,
            render_metrics_text,
        )
        from tests.service.test_health_properties import brute_force_quantile

        clock = [100.0]
        metrics = ServiceMetrics()
        monitor = HealthMonitor(
            counters=tuple(metrics.counter_values()), clock=lambda: clock[0]
        )
        stream = [0.4, 1.0, 1.5, 3.0, 3.0, 7.5, 12.0, 45.0, 180.0, 900.0, 12500.0] * 7
        for position, latency_ms in enumerate(stream):
            clock[0] = 100.0 + position * 0.5  # 38.5 s in all: inside `slow`
            metrics.latency_ms.record(latency_ms)
            monitor.observe_latency(latency_ms)

        snapshot = metrics.snapshot()
        snapshot["health"] = monitor.sample()
        slow = snapshot["health"]["windows"]["slow"]["latency"]
        assert slow["count"] == metrics.latency_ms.count == len(stream)
        series = parse_metrics_text(render_metrics_text(snapshot))
        for percent in (50.0, 95.0, 99.0):
            stat = f"p{percent:g}"
            expected = brute_force_quantile(stream, percent)
            assert snapshot["latency_ms"][stat] == slow[stat] == expected
            assert series[f'repro_latency_ms{{stat="{stat}"}}'] == expected
            assert series[f'repro_window_latency_ms{{stat="{stat}",window="slow"}}'] == expected
