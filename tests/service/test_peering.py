"""The shared cache tier: frames, the tier, and the client.

Covers the three layers separately:

* frame builders/validators (pure functions, strict unknown-field posture
  mirroring the main protocol's);
* :class:`SharedCacheTier` — bounded LRU semantics and counters;
* :class:`PeerCacheClient` against a live shard-less
  :class:`~repro.service.fleet.FleetRouter`, whose one endpoint answers the
  tier's requests — including the failure-tolerance contract: a dead tier
  is always a *miss*, never an exception.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.service.fleet import FleetRouter
from repro.service.peering import (
    PeerCacheClient,
    SharedCacheTier,
    cache_get_message,
    cache_put_message,
    parse_peer_address,
    parse_peering_frame,
    validate_entry,
)
from repro.service.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    hello_message,
)

ENTRY = {"result": {"name": "f", "answer": 1}, "pass_seconds": {"spill": 0.5}}


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------


def test_parse_peer_address():
    assert parse_peer_address("127.0.0.1:7814") == ("127.0.0.1", 7814)
    assert parse_peer_address("::1:7814") == ("::1", 7814)
    for bad in ("7814", "host:", ":7814", "host:notaport", "host:0", "host:70000"):
        with pytest.raises(ValueError):
            parse_peer_address(bad)


def test_parse_peering_frame_roundtrips():
    kind, rid, key, entry = parse_peering_frame(cache_get_message("p1", "k"))
    assert (kind, rid, key, entry) == ("cache-get", "p1", "k", None)
    kind, rid, key, entry = parse_peering_frame(cache_put_message("p2", "k", ENTRY))
    assert (kind, rid, key) == ("cache-put", "p2", "k")
    assert entry == ENTRY


def test_parse_peering_frame_rejects_malformed():
    for bad in (
        {"type": "bogus", "id": "p1", "key": "k"},
        {"type": "cache-hit", "id": "p1", "key": "k", "entry": ENTRY},
        {"type": "cache-get", "id": "", "key": "k"},
        {"type": "cache-get", "id": "p1", "key": ""},
        {"type": "cache-get", "id": "p1", "key": "k", "extra": 1},
        {"type": "cache-put", "id": "p1", "key": "k", "entry": "not-an-object"},
    ):
        with pytest.raises(ProtocolError):
            parse_peering_frame(bad)


def test_validate_entry_is_strict():
    validated = validate_entry(ENTRY)
    assert validated == ENTRY
    assert validated is not ENTRY  # defensive copy
    for bad in (
        None,
        [],
        {"result": {}},  # fine — pass_seconds defaults
        {"result": "x", "pass_seconds": {}},
        {"result": {}, "pass_seconds": []},
        {"result": {}, "pass_seconds": {}, "extra": 1},
    ):
        if bad == {"result": {}}:
            assert validate_entry(bad) == {"result": {}, "pass_seconds": {}}
            continue
        with pytest.raises(ProtocolError):
            validate_entry(bad)


# ---------------------------------------------------------------------------
# The tier.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Client against a live router.
# ---------------------------------------------------------------------------


def run(coroutine):
    """Run one async test body on a fresh loop."""

    return asyncio.run(coroutine)


async def start_router():
    """A shard-less router: its endpoint answers only admin and tier requests."""

    router = FleetRouter()
    await router.start()
    return router


def test_client_roundtrip_against_live_tier():
    async def body():
        router = await start_router()
        client = PeerCacheClient("127.0.0.1", router.port, timeout=10.0)
        try:
            assert await client.get("k") is None  # miss
            await client.put("k", ENTRY)
            assert await client.get("k") == ENTRY  # hit, byte-identical
            snap = client.snapshot()
            assert snap["connected"] is True
            assert snap["gets"] == 2 and snap["hits"] == 1 and snap["puts"] == 1
            assert snap["errors"] == 0
        finally:
            await client.close()
            await router.drain()
        assert router.tier.snapshot()["stored"] == 1

    run(body())


def test_client_concurrent_requests_share_one_connection():
    async def body():
        router = await start_router()
        client = PeerCacheClient("127.0.0.1", router.port, timeout=10.0)
        try:
            await asyncio.gather(
                *(client.put(f"k{i}", ENTRY) for i in range(8))
            )
            results = await asyncio.gather(
                *(client.get(f"k{i}") for i in range(8))
            )
            assert all(entry == ENTRY for entry in results)
        finally:
            await client.close()
            await router.drain()

    run(body())


def test_client_treats_dead_peer_as_miss_with_cooldown():
    """The failure-tolerance contract: no listener ⇒ miss, not exception,
    and the cooldown suppresses reconnect storms."""

    async def body():
        router = await start_router()
        await router.drain()  # port is now dead
        client = PeerCacheClient(
            "127.0.0.1", router.port, timeout=0.5, retry_seconds=60.0
        )
        try:
            assert await client.get("k") is None
            await client.put("k", ENTRY)  # must not raise
            errors_after_first = client.errors
            assert errors_after_first >= 1
            # In cooldown: no new connection attempt, still a miss.
            assert await client.get("k") is None
            assert client.errors == errors_after_first
        finally:
            await client.close()

    run(body())


def test_client_recovers_after_connection_drop():
    async def body():
        router = await start_router()
        client = PeerCacheClient(
            "127.0.0.1", router.port, timeout=5.0, retry_seconds=0.0
        )
        try:
            await client.put("k", ENTRY)
            # Sever the established connection out from under the client.
            client._writer.transport.abort()
            await asyncio.sleep(0.05)  # read loop sees the reset, tears down
            assert client.snapshot()["connected"] is False
            # retry_seconds=0: the very next call reconnects and hits.
            assert await client.get("k") == ENTRY
        finally:
            await client.close()
            await router.drain()

    run(body())


def test_router_answers_errors_for_bad_tier_frames_but_stays_up():
    async def body():
        router = await start_router()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", router.port)
            writer.write(encode_message(hello_message()))
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout=5.0)  # hello back
            # A well-formed frame of a client-side type: error, stays up.
            writer.write(b'{"type": "cache-hit", "id": "p1", "key": "k", "entry": {"result": {}}}\n')
            # A malformed frame: error, stays up.
            writer.write(b'{"type": "cache-get", "id": "p2"}\n')
            # A valid get still works afterwards.
            writer.write(b'{"type": "cache-get", "id": "p3", "key": "k"}\n')
            await writer.drain()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), timeout=5.0))
                for _ in range(3)
            ]
            assert replies[0]["type"] == "error"
            assert replies[0]["code"] == "bad_request"
            assert replies[1]["type"] == "error"
            assert replies[1]["id"] == "p2"
            assert replies[2] == {"type": "cache-miss", "id": "p3", "key": "k"}
            writer.close()
        finally:
            await router.drain()
        # The malformed tier frame counts against the tier; the unknown
        # type against the router.
        assert router.tier.snapshot()["protocol_errors"] == 1
        assert router.metrics.protocol_errors == 1

    run(body())


def test_plain_server_rejects_tier_requests_and_stays_up(embedded_server):
    with embedded_server() as emb:
        with socket.create_connection(("127.0.0.1", emb.port), timeout=10) as raw:
            with raw.makefile("rb") as stream:
                raw.sendall(encode_message(hello_message()))
                assert decode_message(stream.readline())["type"] == "hello"
                raw.sendall(encode_message(cache_get_message("p1", "k")))
                reply = decode_message(stream.readline())
                assert reply["type"] == "error"
                assert reply["code"] == "bad_request"
                assert reply["id"] == "p1"
                assert "unknown message type" in reply["message"]
                # The connection is still served.
                raw.sendall(encode_message({"type": "stats", "id": "s1"}))
                assert decode_message(stream.readline())["type"] == "stats"
