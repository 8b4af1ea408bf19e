"""The multi-shard fleet, end to end on the thread backend.

Covers the fleet's functional contract without process faults (those
live in ``test_fleet_faults.py``): ring-affine routing, the router's shared
cache tier turning one shard's compile into fleet-wide hits, router-side
coalescing, byte-identity against the serial ``compile_many`` oracle,
aggregate stats, and graceful drain.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.client import ServiceClient
from repro.service.fleet import Fleet, SharedCacheTier
from repro.service.protocol import (
    LintRequest,
    parse_compile_request,
    parse_lint_request,
    resolve_compile_request,
    resolve_lint_request,
    response_result_bytes,
)
from repro.service.ring import HashRing
from tests.service.conftest import open_pipelined, oracle_result_bytes, scenario_message
from tests.service.test_metrics import ROUTER_STATS_KEYS, SERVICE_STATS_KEYS, flat_keys
from tests.service.test_serving_properties import make_mix, serial_oracle, serve_mix


def json_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@pytest.fixture(scope="module")
def fleet():
    """A 3-shard thread-backend fleet shared by the tests in this module."""

    with Fleet(shards=3, backend="thread") as running:
        yield running


def test_fleet_stats_shape(fleet):
    stats = fleet.stats()
    assert stats["schema"] == "fleet-stats/v1"
    assert stats["draining"] is False
    assert stats["ring"]["members"] == ["s0", "s1", "s2"]
    assert sum(stats["ring"]["points"].values()) == 3 * 64
    assert stats["lost_shards"] == {}
    assert {shard["id"] for shard in stats["shards"]} == {"s0", "s1", "s2"}
    for shard in stats["shards"]:
        assert shard["healthy"] is True
        assert shard["status"] == "ok"
        assert shard["stats"]["schema"] == "service-stats/v1"
    assert "tier" in stats and "router" in stats


def test_fleet_stats_keys_and_order_are_pinned(fleet):
    stats = fleet.stats()
    assert list(stats) == [
        "schema", "draining", "health", "router", "ring", "tier",
        "resolve_memo", "shards", "lost_shards",
    ]
    assert flat_keys(stats["router"]) == ROUTER_STATS_KEYS
    # Shard snapshots cross the wire with sorted keys.
    shard = stats["shards"][0]["stats"]
    assert list(shard) == [
        "batches", "compile_ms", "draining", "health", "latency_ms", "policy", "queue", "queue_ms", "rates", "requests", "resolve_memo",
        "schema", "uptime_seconds",
    ]
    assert sorted(f"requests.{name}" for name in shard["requests"]) == sorted(
        key for key in SERVICE_STATS_KEYS if key.startswith("requests.")
    )


def test_routing_follows_the_ring(fleet):
    """Every response is served by exactly the shard the public ring
    assigns to the request's cache key — pinned placement, not luck."""

    ring = HashRing(["s0", "s1", "s2"])
    messages = [
        scenario_message(f"r{i}", f"scenario:switch_dispatch:{100 + i}:0")
        for i in range(6)
    ]
    with ServiceClient(port=fleet.port, timeout=120.0) as client:
        for message in messages:
            expected = ring.route(
                resolve_compile_request(parse_compile_request(message)).cache_key
            )
            response = client.send_compile_message(message)
            assert response["type"] == "result"
            assert response["service"]["shard"] == expected


def test_repeat_request_is_a_tier_hit_not_a_recompile(fleet):
    """One shard's compile populates the shared tier; the identical
    request asked again — even from a different client — answers from the
    tier with byte-identical results and no second compile."""

    message = scenario_message("t0", "scenario:deep_loop_nest:55:1", target="tiny")
    before = fleet.stats()["tier"]["stored"]
    with ServiceClient(port=fleet.port, timeout=120.0) as client:
        first = client.send_compile_message(message)
    with ServiceClient(port=fleet.port, timeout=120.0) as client:
        second = client.send_compile_message(dict(message, id="t1"))
    assert first["type"] == second["type"] == "result"
    assert first["service"]["cache"] in ("miss", "hit")
    assert second["service"]["cache"] == "tier"
    assert "shard" not in second["service"]  # answered by the router itself
    assert response_result_bytes(first) == response_result_bytes(second)
    assert fleet.stats()["tier"]["stored"] == before + 1


def test_fleet_matches_serial_oracle_with_single_compile(fleet):
    """The tentpole invariant: a concurrent mix served by the fleet is
    byte-identical to serial ``compile_many``, and the fleet as a whole
    compiles each unique key at most once."""

    messages = make_mix(seed=1302, size=8, duplicates=6)
    truth = serial_oracle(messages)
    compiled_before = sum(
        shard["stats"]["requests"]["compiled"] for shard in fleet.stats()["shards"]
    )
    served = serve_mix(fleet.port, messages, clients=4)
    assert len(served) == len(messages)
    for message, response in served:
        signature = parse_compile_request(message).signature()
        assert response["type"] == "result", response
        assert response_result_bytes(response) == truth[signature]
    stats = fleet.stats()
    compiled = (
        sum(shard["stats"]["requests"]["compiled"] for shard in stats["shards"])
        - compiled_before
    )
    unique = len({parse_compile_request(m).signature() for m in messages})
    assert compiled <= unique
    assert stats["router"]["errors"] == 0
    assert stats["router"]["shard_deaths"] == 0


def test_attach_duplicate_shard_id_rejected(fleet):
    with pytest.raises(Exception) as excinfo:
        fleet._call(fleet.router.attach_shard("s0", fleet.host, 1))
    assert "already attached" in str(excinfo.value)


def test_bad_request_is_answered_not_fatal(fleet):
    with ServiceClient(port=fleet.port, timeout=30.0) as client:
        response = client._roundtrip(
            {"type": "compile", "id": "bad", "program": {}}
        )
    assert response["type"] == "error"
    # The fleet keeps serving afterwards.
    with ServiceClient(port=fleet.port, timeout=120.0) as client:
        ok = client.send_compile_message(
            scenario_message("after-bad", "scenario:switch_dispatch:77:0")
        )
    assert ok["type"] == "result"


def test_single_shard_fleet_round_trips():
    with Fleet(shards=1, backend="thread") as fleet:
        message = scenario_message("solo", "scenario:switch_dispatch:9:0")
        with ServiceClient(port=fleet.port, timeout=120.0) as client:
            response = client.send_compile_message(message)
        assert response["type"] == "result"
        assert response["service"]["shard"] == "s0"
        stats = fleet.stats()
        assert stats["ring"]["members"] == ["s0"]


def test_drain_is_graceful_and_idempotent():
    with Fleet(shards=2, backend="thread") as fleet:
        with ServiceClient(port=fleet.port, timeout=120.0) as client:
            response = client.send_compile_message(
                scenario_message("d0", "scenario:switch_dispatch:13:0")
            )
        assert response["type"] == "result"
        port = fleet.port
        fleet.stop()
        fleet.stop()  # idempotent
        # The client port is closed after the drain.
        with pytest.raises(OSError):
            ServiceClient(port=port, timeout=2.0)


async def pipelined_burst(port, messages):
    """Send every message on one pipelined connection; the replies in order."""

    connection = await open_pipelined(port)
    try:
        return await asyncio.gather(*(connection.request(m) for m in messages))
    finally:
        connection.close("burst done")


def test_router_coalesces_a_duplicate_burst_into_one_compile():
    """Eight identical compiles pipelined at a fresh fleet: the router
    forwards one, the rest coalesce onto it or hit the tier it filled, and
    every answer is the serial oracle's bytes."""

    message = scenario_message("c", "scenario:deep_loop_nest:3:2")
    truth = oracle_result_bytes(message)
    burst = [dict(message, id=f"c{i}") for i in range(8)]

    with Fleet(shards=2, backend="thread") as fleet:
        responses = asyncio.run(pipelined_burst(fleet.port, burst))
        stats = fleet.stats()

    for response in responses:
        assert response["type"] == "result", response
        assert response_result_bytes(response) == truth
    compiled = sum(shard["stats"]["requests"]["compiled"] for shard in stats["shards"])
    assert compiled == 1
    router = stats["router"]
    assert router["coalesced"] + router["tier_hits"] == 7
    assert router["coalesced"] == sum(
        bool(response["service"]["coalesced"]) for response in responses
    )
    assert stats["tier"]["stored"] == 1


def test_router_coalesces_lint_bursts_and_fills_the_tier_without_timings():
    """Lints share the compile path: a pipelined burst forwards once, and
    the tier entry the router fills carries the lint ``result`` and no
    ``pass_seconds``."""

    message = LintRequest(id="l", program={"scenario": "classic_mix:0:0"}).to_message()
    key = resolve_lint_request(parse_lint_request(message)).cache_key
    burst = [dict(message, id=f"l{i}") for i in range(6)]

    async def peek(fleet):
        return fleet.router.tier.get(key)

    with Fleet(shards=2, backend="thread") as fleet:
        responses = asyncio.run(pipelined_burst(fleet.port, burst))
        stats = fleet.stats()
        entry = fleet._call(peek(fleet))

    assert [response["id"] for response in responses] == [m["id"] for m in burst]
    assert all(response["type"] == "result" for response in responses)
    assert {json_bytes(response["result"]) for response in responses} == {
        json_bytes(entry["result"])
    }
    router = stats["router"]
    assert router["forwarded"] == 1
    assert router["coalesced"] + router["tier_hits"] == 5
    assert stats["tier"]["stored"] == 1
    assert entry["pass_seconds"] == {}


@pytest.mark.parametrize(
    "fields", [{"cache": "bypass"}, {"lint": "strict"}], ids=["bypass", "strict"]
)
def test_router_forwards_uncacheable_requests_and_never_fills_the_tier(fields):
    """A cache bypass or a strict-lint compile is forwarded every time:
    no coalescing onto another request, no tier lookup, no tier entry."""

    message = dict(scenario_message("u", "scenario:classic_mix:0:0"), **fields)
    burst = [dict(message, id=f"u{i}") for i in range(4)]
    truth = oracle_result_bytes(message)

    with Fleet(shards=2, backend="thread") as fleet:
        responses = asyncio.run(pipelined_burst(fleet.port, burst))
        stats = fleet.stats()

    for response in responses:
        assert response["type"] == "result", response
        assert response_result_bytes(response) == truth
        assert response["service"]["shard"] in ("s0", "s1")
    router = stats["router"]
    assert router["forwarded"] == 4
    assert router["coalesced"] == 0 and router["tier_hits"] == 0
    assert stats["tier"]["gets"] == 0 and stats["tier"]["puts"] == 0


# ---------------------------------------------------------------------------
# The tier itself.
# ---------------------------------------------------------------------------

ENTRY = {"result": {"name": "f", "answer": 1}, "pass_seconds": {"spill": 0.5}}


def test_tier_put_get_and_duplicate_counting():
    tier = SharedCacheTier(max_entries=8)
    assert tier.get("k") is None
    assert tier.put("k", ENTRY) is True
    assert tier.put("k", ENTRY) is False  # idempotent duplicate
    assert tier.get("k") == ENTRY
    assert len(tier) == 1
    snap = tier.snapshot()
    assert snap["gets"] == 2 and snap["hits"] == 1 and snap["misses"] == 1
    assert snap["puts"] == 2 and snap["stored"] == 1 and snap["duplicate_puts"] == 1
    assert snap["hit_rate"] == 0.5


def test_tier_lru_evicts_least_recently_used():
    tier = SharedCacheTier(max_entries=2)
    tier.put("a", ENTRY)
    tier.put("b", ENTRY)
    assert tier.get("a") is not None  # refresh "a"
    tier.put("c", ENTRY)  # evicts "b", the LRU entry
    assert tier.get("b") is None
    assert tier.get("a") is not None
    assert tier.get("c") is not None
    assert tier.snapshot()["evictions"] == 1


def test_tier_rejects_invalid_bound():
    with pytest.raises(ValueError):
        SharedCacheTier(max_entries=0)
