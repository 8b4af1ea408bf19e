"""Pinned loadgen interleaving: scheduler/coalescing behaviour by seed.

``traces/hot_coalesce.jsonl`` is the exact request sequence
``build_request_plan(mix="hot", requests=12, seed=42)`` produced when this
subsystem was built — 12 requests over 4 unique programs, duplicate-burst
first.  Mirroring the PR-4 corpus pattern, the trace is pinned as a *file*
so the interleaving stays fixed forever, independent of the load
generator that originally produced it.

Replayed under a controlled schedule (the compiler held until every
request is admitted), the server's behaviour is fully deterministic:

* exactly ``unique`` procedures compile;
* exactly ``total - unique`` requests coalesce onto in-flight entries;
* every response is byte-identical to the serial ``compile_many`` oracle.

The batching itself is pinned separately: misses that queue behind a busy
compiler go out together as the next batch, the moment it is free.
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.service.loadgen import build_request_plan
from repro.service.protocol import parse_compile_request, response_result_bytes
from tests.service.conftest import open_pipelined, oracle_result_bytes

TRACE_PATH = os.path.join(os.path.dirname(__file__), "traces", "hot_coalesce.jsonl")


def load_trace():
    """The pinned request sequence, one JSON message per line."""

    with open(TRACE_PATH, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_trace_is_what_the_seeded_plan_still_generates():
    """The generator still reproduces the pinned interleaving bit for bit —
    the loadgen determinism contract (same seed ⇒ same plan, forever)."""

    trace = load_trace()
    regenerated = build_request_plan(mix="hot", requests=12, seed=42)
    assert regenerated == trace


def test_trace_replay_coalesces_deterministically(embedded_server, compile_hold):
    trace = load_trace()
    signatures = [parse_compile_request(m).signature() for m in trace]
    unique = len(set(signatures))
    assert unique < len(trace)  # the fixture must contain duplicates

    # The compiler is held until the whole trace is admitted, and a batch
    # bound fits every unique entry: under this schedule the coalescing
    # outcome is exact, not probabilistic.
    with embedded_server(batch_max_requests=32) as emb:

        async def replay():
            # Two pipelined connections (id-demultiplexed): every request
            # is on the wire before any response is awaited.
            connections = [await open_pipelined(emb.port) for _ in range(2)]
            try:
                tasks = [
                    asyncio.ensure_future(
                        asyncio.wait_for(
                            connections[position % len(connections)].request(message),
                            60.0,
                        )
                    )
                    for position, message in enumerate(trace)
                ]
                await asyncio.to_thread(compile_hold.wait_admitted, len(trace))
                compile_hold.release.set()
                return await asyncio.gather(*tasks)
            finally:
                compile_hold.release.set()
                for connection in connections:
                    connection.close("client closed")

        responses = asyncio.run(replay())
        stats = emb.stats()

    # Exact, schedule-independent outcome.
    assert stats["requests"]["compiled"] == unique
    assert stats["requests"]["coalesced"] == len(trace) - unique
    assert stats["requests"]["errors"] == 0

    # Every fan-out copy matches the serial oracle bytes.
    truth = {
        signature: oracle_result_bytes(message)
        for signature, message in zip(signatures, trace)
    }
    for signature, response in zip(signatures, responses):
        assert response["type"] == "result"
        assert response_result_bytes(response) == truth[signature]


def test_misses_behind_a_busy_compiler_form_the_next_batch(
    embedded_server, compile_hold
):
    """Work-conserving dispatch, exactly: a lone miss goes to the compiler
    as soon as it is queued, and the distinct misses that queue while it
    compiles go out together as the next batch."""

    trace = load_trace()
    distinct = list({parse_compile_request(m).signature(): m for m in trace}.values())
    held, queued = distinct[0], distinct[1:]

    with embedded_server() as emb:

        async def run():
            connection = await open_pipelined(emb.port)
            try:
                first = asyncio.ensure_future(connection.request(held))
                # Queued and so already taken by the idle dispatcher: the
                # requests sent next cannot join its batch.
                await asyncio.to_thread(compile_hold.wait_admitted, 1)
                rest = [
                    asyncio.ensure_future(connection.request(message))
                    for message in queued
                ]
                await asyncio.to_thread(compile_hold.wait_admitted, len(distinct))
                await asyncio.to_thread(compile_hold.wait_entered)
                waiting = await asyncio.to_thread(emb.stats)
                compile_hold.release.set()
                return waiting, await first, await asyncio.gather(*rest)
            finally:
                compile_hold.release.set()
                connection.close("client closed")

        waiting, first, rest = asyncio.run(run())
        stats = emb.stats()

    assert waiting["batches"]["dispatched"] == 1
    assert waiting["queue"]["depth"] == len(queued)
    assert first["service"]["batch_size"] == 1
    assert [r["service"]["batch_size"] for r in rest] == [len(queued)] * len(queued)
    assert stats["batches"]["dispatched"] == 2
    assert stats["batches"]["max_size"] == len(queued)
    assert stats["requests"]["compiled"] == len(distinct)
