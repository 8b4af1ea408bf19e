"""Pinned loadgen interleaving: scheduler/coalescing behaviour by seed.

``traces/hot_coalesce.jsonl`` is the exact request sequence
``build_request_plan(mix="hot", requests=12, seed=42)`` produced when this
subsystem was built — 12 requests over 4 unique programs, duplicate-burst
first.  Mirroring the PR-4 corpus pattern, the trace is pinned as a *file*
so the interleaving stays fixed forever, independent of the load
generator that originally produced it.

Replayed under a controlled schedule (every request admitted before the
batch window closes), the server's behaviour is fully deterministic:

* exactly ``unique`` procedures compile, in exactly one batch;
* exactly ``total - unique`` requests coalesce onto in-flight entries;
* every response is byte-identical to the serial ``compile_many`` oracle.
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.service.client import _check_hello
from repro.service.endpoint import PipelinedConnection
from repro.service.loadgen import build_request_plan
from repro.service.protocol import (
    hello_message,
    parse_compile_request,
    response_result_bytes,
)
from tests.service.conftest import oracle_result_bytes

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


def test_trace_replay_coalesces_deterministically(embedded_server):
    trace = load_trace()
    signatures = [parse_compile_request(m).signature() for m in trace]
    unique = len(set(signatures))
    assert unique < len(trace)  # the fixture must contain duplicates

    # A window long enough that the whole trace is admitted before the
    # first dispatch, and a batch bound that fits every unique entry:
    # under this schedule the coalescing outcome is exact, not
    # probabilistic.
    with embedded_server(batch_window_ms=500.0, batch_max_requests=32) as emb:

        async def replay():
            # Two pipelined connections (id-demultiplexed): every request
            # is on the wire before any response is awaited, so the whole
            # trace is admitted within the batch window.
            connections = [
                await PipelinedConnection.open(
                    emb.host, emb.port, hello_message(), _check_hello, 60.0,
                    label="server",
                )
                for _ in range(2)
            ]
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
                return await asyncio.gather(*tasks)
            finally:
                for connection in connections:
                    connection.close("client closed")

        responses = asyncio.run(replay())
        stats = emb.stats()

    # Exact, schedule-independent outcome.
    assert stats["requests"]["compiled"] == unique
    assert stats["requests"]["coalesced"] == len(trace) - unique
    assert stats["batches"]["dispatched"] == 1
    assert stats["batches"]["max_size"] == unique
    assert stats["requests"]["errors"] == 0

    # Every fan-out copy matches the serial oracle bytes.
    truth = {
        signature: oracle_result_bytes(message)
        for signature, message in zip(signatures, trace)
    }
    for signature, response in zip(signatures, responses):
        assert response["type"] == "result"
        assert response_result_bytes(response) == truth[signature]
