"""The multi-shard fleet, end to end on the thread backend.

Covers the tentpole's functional contract without process faults (those
live in ``test_fleet_faults.py``): ring-affine routing, the shared cache
tier turning one shard's compile into fleet-wide hits, byte-identity
against the serial ``compile_many`` oracle, the shard-side peer path,
aggregate stats, and graceful drain.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.pipeline.compiler import compile_many
from repro.service.client import ServiceClient
from repro.service.fleet import Fleet, FleetRouter
from repro.service.protocol import (
    parse_compile_request,
    resolve_compile_request,
    response_result_bytes,
    result_payload,
)
from repro.service.ring import HashRing
from tests.service.conftest import scenario_message
from tests.service.test_metrics import ROUTER_STATS_KEYS, SERVICE_STATS_KEYS, flat_keys
from tests.service.test_serving_properties import make_mix, serial_oracle, serve_mix


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
        "batches", "compile_ms", "draining", "health", "latency_ms", "peer",
        "policy", "queue", "queue_ms", "rates", "requests", "resolve_memo",
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


def test_shard_peer_path_answers_from_a_prepopulated_tier(tmp_path):
    """The shard-side peer client, deterministically: an embedded server
    pointed at a shard-less router whose tier already holds the key answers
    with ``cache_status == "peer"`` and the exact oracle bytes — no compile."""

    from repro.service.embedded import EmbeddedServer

    message = scenario_message("p0", "scenario:switch_dispatch:21:1", target="micro")
    resolved = resolve_compile_request(parse_compile_request(message))
    compiled = compile_many(
        [(resolved.function, resolved.profile)],
        machine=resolved.request.target,
        cost_model=resolved.request.cost_model,
        techniques=list(resolved.request.techniques),
        verify=True,
    )[0]
    payload = result_payload(resolved, compiled)
    truth = json.dumps(payload, sort_keys=True).encode("utf-8")

    import threading

    ready = threading.Event()
    state = {}

    def tier_thread():
        async def main():
            router = FleetRouter()
            await router.start()
            router.tier.put(resolved.cache_key, {"result": payload, "pass_seconds": {}})
            state["tier"] = router.tier
            state["port"] = router.port
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            ready.set()
            await state["stop"].wait()
            await router.drain()

        asyncio.run(main())

    worker = threading.Thread(target=tier_thread, daemon=True)
    worker.start()
    assert ready.wait(10.0)
    try:
        with EmbeddedServer(peer=f"127.0.0.1:{state['port']}") as emb:
            with ServiceClient(port=emb.port, timeout=120.0) as client:
                response = client.send_compile_message(message)
            stats = emb.stats()
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        worker.join(10.0)

    assert response["type"] == "result"
    assert response["service"]["cache"] == "peer"
    assert response_result_bytes(response) == truth
    assert stats["requests"]["peer_hits"] == 1
    assert stats["requests"]["compiled"] == 0
    assert stats["peer"]["connected"] is True
    assert state["tier"].snapshot()["hits"] == 1
