"""The ``metrics-text/v1`` scrape endpoint: determinism, parsing, transport.

The rendering contract is *byte*-determinism given a snapshot: the pinned
property the ops CI job asserts against a live fleet.  These tests cover
the pure renderer, the parser (its inverse for well-formedness checks),
and the ``metrics`` request type on both a single server and a fleet
router — fetched over real sockets via ``ServiceClient.metrics_text``.
"""

from __future__ import annotations

import json

import pytest

from repro.service.client import ServiceClient
from repro.service.fleet import Fleet
from repro.service.health import (
    METRICS_TEXT_SCHEMA,
    parse_metrics_text,
    render_metrics_text,
)


class TestRenderer:
    def snapshot(self):
        """A miniature but representative service snapshot."""

        return {
            "schema": "service-stats/v1",
            "uptime_seconds": 12.5,
            "draining": False,
            "requests": {"received": 10, "completed": 9, "errors": 1},
            "rates": {"qps": 0.72},
            "batches": {"dispatched": 3, "mean_size": 3.0, "max_size": 4},
            "queue": {"depth": 0, "peak_depth": 5},
            "latency_ms": {"count": 9, "p50": 2.0, "p99": 8.0},
            "policy": {"enabled": True, "shedding": False, "decisions": 2},
            "health": {
                "schema": "health-sample/v1",
                "t": 12.5,
                "queue_limit": 64,
                "windows": {
                    "fast": {
                        "seconds": 10.0,
                        "counts": {"received": 4, "completed": 4, "errors": 0},
                        "latency": {"count": 4, "buckets": [4], "p50": 1.0},
                        "gauges": {"queue_depth": 2.0},
                        "rates": {"qps": 0.4, "error_rate": 0.0, "availability": 1.0},
                    }
                },
            },
        }

    def test_byte_deterministic_rendering(self):
        first = render_metrics_text(self.snapshot())
        second = render_metrics_text(self.snapshot())
        assert first == second
        # A JSON round-trip of the snapshot must not change a byte either
        # (dict iteration order never leaks into the rendering).
        third = render_metrics_text(json.loads(json.dumps(self.snapshot())))
        assert first == third

    def test_header_and_series_content(self):
        text = render_metrics_text(self.snapshot())
        assert text.startswith(f"# {METRICS_TEXT_SCHEMA}\n")
        series = parse_metrics_text(text)
        assert series['repro_requests_total{event="completed"}'] == 9.0
        assert series["repro_uptime_seconds"] == 12.5
        assert series["repro_draining"] == 0.0
        assert series["repro_policy_shedding"] == 0.0
        assert series["repro_policy_decisions_total"] == 2.0
        assert series['repro_window_latency_ms{stat="p50",window="fast"}'] == 1.0
        assert series['repro_window_rate{name="availability",window="fast"}'] == 1.0
        assert series['repro_window_gauge{name="queue_depth",window="fast"}'] == 2.0

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            render_metrics_text({"schema": "no-such-schema/v9"})

    def test_parser_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            parse_metrics_text("repro_x 1\n")  # no header
        with pytest.raises(ValueError):
            parse_metrics_text(f"# {METRICS_TEXT_SCHEMA}\nnot a metric line\n")


class TestServerScrape:
    def test_metrics_request_round_trip(self, embedded_server):
        with embedded_server() as emb:
            with ServiceClient(port=emb.port) as client:
                client.compile(scenario="scenario:call_web:6:0")
                text = client.metrics_text()
                snapshot = client.stats()
        assert text.startswith(f"# {METRICS_TEXT_SCHEMA}\n")
        series = parse_metrics_text(text)
        assert series['repro_requests_total{event="completed"}'] == 1.0
        assert series["repro_policy_shedding"] == 0.0
        # Byte-determinism against the snapshot: rendering the fetched
        # snapshot locally gives the same *structure* of series (the live
        # scrape raced its own counters, so values may differ slightly).
        local = parse_metrics_text(render_metrics_text(snapshot))
        assert set(local) == set(series)

    def test_scrape_of_one_snapshot_is_byte_deterministic(self, embedded_server):
        with embedded_server() as emb:
            with ServiceClient(port=emb.port) as client:
                client.compile(scenario="scenario:call_web:7:0")
                snapshot = client.stats()
        assert render_metrics_text(snapshot) == render_metrics_text(snapshot)


class TestFleetScrape:
    def test_fleet_metrics_request_round_trip(self):
        with Fleet(shards=2, backend="thread") as fleet:
            with ServiceClient(port=fleet.port) as client:
                client.compile(scenario="scenario:call_web:8:0")
                text = client.metrics_text()
        series = parse_metrics_text(text)
        assert series["repro_ring_members"] == 2.0
        assert series["repro_lost_shards"] == 0.0
        assert series['repro_router_total{event="completed"}'] == 1.0
        assert series['repro_shard_healthy{shard="s0"}'] == 1.0
        assert series['repro_shard_healthy{shard="s1"}'] == 1.0
        # The router's windowed health is present under its own prefix.
        assert any(key.startswith("repro_router_window_total") for key in series)

    def test_fleet_snapshot_renders_deterministically(self):
        with Fleet(shards=2, backend="thread") as fleet:
            snapshot = fleet.stats()
        assert render_metrics_text(snapshot) == render_metrics_text(
            json.loads(json.dumps(snapshot))
        )
