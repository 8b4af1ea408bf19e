"""Pinned fleet scheduling: shard placement and tier behaviour by trace.

``traces/fleet_coalesce.jsonl`` is the exact request sequence
``build_request_plan(mix="hot", requests=16, seed=7)`` produced when the
fleet was built — 16 requests over 4 unique programs.  Like the PR-5
``hot_coalesce`` fixture, it is pinned as a *file* so the interleaving
stays fixed forever; on top of it this module pins the fleet's routing
itself:

* every request's cache key maps to a **pinned shard** (the literal
  ``OWNERS`` table below) — SHA-256 ring placement is a contract, not an
  implementation detail;
* replayed serially on a 3-shard fleet, the outcome is exact: the first
  occurrence of each key is a ``miss`` compiled by its owner, every
  later duplicate is answered by the router from the shared tier; each
  shard compiles exactly the unique keys it owns, the fleet compiles
  each key exactly once, and the tier stores exactly ``unique`` entries;
* a second full replay is 100% tier hits with zero new compiles.
"""

from __future__ import annotations

import json
import os

from repro.service.client import ServiceClient
from repro.service.fleet import Fleet
from repro.service.loadgen import build_request_plan
from repro.service.protocol import (
    parse_compile_request,
    resolve_compile_request,
    response_result_bytes,
)
from repro.service.ring import HashRing
from tests.service.test_serving_properties import serial_oracle

TRACE_PATH = os.path.join(os.path.dirname(__file__), "traces", "fleet_coalesce.jsonl")

#: The pinned ring placement for a ["s0", "s1", "s2"] fleet: request id →
#: owning shard.  Pure SHA-256 arithmetic — if this table ever changes,
#: ring compatibility broke and every deployed fleet would reshuffle.
OWNERS = {
    "q0": "s0", "q1": "s0", "q2": "s0", "q3": "s1",
    "q4": "s2", "q5": "s0", "q6": "s0", "q7": "s1",
    "q8": "s1", "q9": "s1", "q10": "s1", "q11": "s1",
    "q12": "s0", "q13": "s0", "q14": "s0", "q15": "s2",
}

#: First occurrence of each unique key in trace order (the compiles).
FIRST_OCCURRENCES = ("q0", "q3", "q4", "q5")

#: Unique keys each shard owns (what it, and only it, must compile).
OWNED_UNIQUE = {"s0": 2, "s1": 1, "s2": 1}


def load_trace():
    """The pinned request sequence, one JSON message per line."""

    with open(TRACE_PATH, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_trace_is_what_the_seeded_plan_still_generates():
    """Loadgen determinism: seed 7 still reproduces the pinned file."""

    assert build_request_plan(mix="hot", requests=16, seed=7) == load_trace()


def test_ring_placement_matches_the_pinned_owners():
    """The consistent-hash placement of every trace key is pinned."""

    ring = HashRing(["s0", "s1", "s2"])
    for message in load_trace():
        resolved = resolve_compile_request(parse_compile_request(message))
        assert ring.route(resolved.cache_key) == OWNERS[message["id"]]


def test_trace_replay_pins_fleet_scheduling(tmp_path):
    """Serial replay on a live 3-shard fleet: placement, tier behaviour
    and the fleet-wide single-compile guarantee, all exact."""

    trace = load_trace()
    truth = serial_oracle(trace)
    first = set(FIRST_OCCURRENCES)

    with Fleet(
        shards=3,
        backend="thread",
        cache_root=str(tmp_path),
    ) as fleet:
        with ServiceClient(port=fleet.port, timeout=120.0) as client:
            responses = [client.send_compile_message(m) for m in trace]
        stats = fleet.stats()

        # Replay the whole trace again: pure tier service, no compiles.
        with ServiceClient(port=fleet.port, timeout=120.0) as client:
            replayed = [
                client.send_compile_message(dict(m, id=f"r-{m['id']}"))
                for m in trace
            ]
        replay_stats = fleet.stats()

    for message, response in zip(trace, responses):
        assert response["type"] == "result", response
        signature = parse_compile_request(message).signature()
        assert response_result_bytes(response) == truth[signature]
        if message["id"] in first:
            # The first occurrence compiles, on exactly the pinned owner.
            assert response["service"]["cache"] == "miss"
            assert response["service"]["shard"] == OWNERS[message["id"]]
        else:
            # Every duplicate answers from the shared tier at the router.
            assert response["service"]["cache"] == "tier"
            assert "shard" not in response["service"]

    # Each shard compiled exactly the unique keys it owns — nothing more.
    compiled_by = {
        shard["id"]: shard["stats"]["requests"]["compiled"]
        for shard in stats["shards"]
    }
    assert compiled_by == OWNED_UNIQUE
    # Fleet-wide: one compile per unique key, one tier entry per key, one
    # tier answer per duplicate.
    unique = len(FIRST_OCCURRENCES)
    assert sum(compiled_by.values()) == unique
    assert stats["tier"]["stored"] == unique
    assert stats["router"]["tier_hits"] == len(trace) - unique
    assert stats["router"]["errors"] == 0

    # The replay leg: byte-identical, all tier, zero new compiles.
    for message, response in zip(trace, replayed):
        signature = parse_compile_request(message).signature()
        assert response["service"]["cache"] == "tier"
        assert response_result_bytes(response) == truth[signature]
    replay_compiled = {
        shard["id"]: shard["stats"]["requests"]["compiled"]
        for shard in replay_stats["shards"]
    }
    assert replay_compiled == OWNED_UNIQUE
    assert replay_stats["tier"]["stored"] == unique
