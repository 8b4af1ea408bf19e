"""The endpoint core's in-flight coalescing and its cache-answer rule.

:meth:`JsonLinesEndpoint._coalesce` is the one implementation both the
compile server and the fleet router build on, so its contract is pinned
here without either of them: one ``produce()`` per key in flight, a
shared answer or failure, and a key that leaves the table only once
``produce`` has returned.  :func:`may_answer_from_cache` is the single
condition under which either endpoint answers one request with another's
answer.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.endpoint import JsonLinesEndpoint, may_answer_from_cache
from repro.service.protocol import CompileRequest, LintRequest


def make_endpoint() -> JsonLinesEndpoint:
    """A bare endpoint: enough state for :meth:`_coalesce`, never listening."""

    return JsonLinesEndpoint("127.0.0.1", 0, health_interval=1.0)


def test_coalesce_runs_produce_once_per_key_in_flight():
    async def body():
        endpoint = make_endpoint()
        release = asyncio.Event()
        calls = []

        async def produce():
            calls.append(1)
            await release.wait()
            return {"answer": 42}

        tasks = [
            asyncio.ensure_future(endpoint._coalesce("k", produce)) for _ in range(5)
        ]
        await asyncio.sleep(0)
        assert list(endpoint._inflight) == ["k"]
        release.set()
        results = await asyncio.gather(*tasks)
        return calls, results, endpoint._inflight

    calls, results, inflight = asyncio.run(body())
    assert len(calls) == 1
    assert [answer for answer, _ in results] == [{"answer": 42}] * 5
    assert sorted(coalesced for _, coalesced in results) == [False] + [True] * 4
    assert inflight == {}


def test_coalesce_shares_a_failure_and_frees_the_key():
    """Every waiter sees the leader's exception; the next request for the
    key produces afresh instead of replaying the failure."""

    async def body():
        endpoint = make_endpoint()
        release = asyncio.Event()
        attempts = []

        async def failing():
            attempts.append("fail")
            await release.wait()
            raise RuntimeError("shard lost")

        async def working():
            attempts.append("ok")
            return "fresh"

        tasks = [
            asyncio.ensure_future(endpoint._coalesce("k", failing)) for _ in range(3)
        ]
        await asyncio.sleep(0)
        release.set()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        retried = await endpoint._coalesce("k", working)
        return attempts, outcomes, retried

    attempts, outcomes, retried = asyncio.run(body())
    assert attempts == ["fail", "ok"]
    assert all(
        isinstance(outcome, RuntimeError) and str(outcome) == "shard lost"
        for outcome in outcomes
    )
    assert retried == ("fresh", False)


def test_coalesce_key_leaves_the_table_only_after_produce_returns():
    """What ``produce`` stores before returning is visible to any request
    that misses the in-flight table — the ordering the router's tier fill
    and the server's cache fill both rely on."""

    async def body():
        endpoint = make_endpoint()
        store = {}
        seen_inflight = []

        async def produce():
            await asyncio.sleep(0)
            store["k"] = "entry"
            seen_inflight.append("k" in endpoint._inflight)
            return "entry"

        answer = await endpoint._coalesce("k", produce)
        return answer, store, seen_inflight, dict(endpoint._inflight)

    answer, store, seen_inflight, inflight = asyncio.run(body())
    assert answer == ("entry", False)
    assert store == {"k": "entry"}
    assert seen_inflight == [True]  # still in flight while the entry lands
    assert inflight == {}


def test_coalesce_distinct_keys_each_produce():
    async def body():
        endpoint = make_endpoint()
        calls = []

        def producer(key):
            async def produce():
                calls.append(key)
                await asyncio.sleep(0)
                return key

            return produce

        results = await asyncio.gather(
            endpoint._coalesce("a", producer("a")),
            endpoint._coalesce("b", producer("b")),
        )
        return calls, results

    calls, results = asyncio.run(body())
    assert sorted(calls) == ["a", "b"]
    assert results == [("a", False), ("b", False)]


@pytest.mark.parametrize(
    "request_, allowed",
    [
        (CompileRequest(id="x", program={"scenario": "call_web:0:0"}), True),
        (
            CompileRequest(
                id="x", program={"scenario": "call_web:0:0"}, cache="bypass"
            ),
            False,
        ),
        (
            CompileRequest(
                id="x", program={"scenario": "call_web:0:0"}, lint="strict"
            ),
            False,
        ),
        (LintRequest(id="x", program={"scenario": "call_web:0:0"}), True),
        (
            LintRequest(id="x", program={"scenario": "call_web:0:0"}, cache="bypass"),
            False,
        ),
    ],
    ids=["compile", "compile-bypass", "compile-strict", "lint", "lint-bypass"],
)
def test_may_answer_from_cache_needs_cache_use_and_lint_off(request_, allowed):
    assert may_answer_from_cache(request_) is allowed
