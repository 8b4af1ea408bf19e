"""The endpoint core's resolution memo and the server's hit paths.

A ``cache: "use"`` request the server has resolved before is answered
from its memoized :class:`~repro.service.protocol.CompileIdentity` — no IR
is rebuilt and nothing is fingerprinted.  These tests pin that the memo
changes no answer, that a memory-tier hit never leaves the event loop, that
the memo stays bounded and IR-free, and that the requests the memo must
not serve (strict lint, ``bypass``, a draining server) still take the full
path.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cache.store import CompileCache
from repro.ir.function import Function
from repro.profiling.profile_data import EdgeProfile
from repro.service import server as server_module
from repro.service.endpoint import RESOLVE_MEMO_ENTRIES, ResolveMemo
from repro.service.protocol import (
    CompileIdentity,
    parse_compile_request,
    parse_lint_request,
    resolve_compile_request,
    resolve_lint_request,
    response_result_bytes,
    run_lint_request,
)
from repro.service.server import CompileServer
from repro.workloads.catalog import get_catalog
from repro.workloads.scenarios import scenario_names
from tests.service.conftest import oracle_result_bytes

#: Every catalog entry and every scenario family, as wire programs.
PROGRAMS = [{"catalog": f"catalog:{name}:1"} for name in get_catalog().names()] + [
    {"scenario": f"scenario:{family}:1:0"} for family in scenario_names()
]


def compile_message(request_id, program, **fields):
    return {"type": "compile", "id": request_id, "program": program, **fields}


def lint_message(request_id, program, **fields):
    return {"type": "lint", "id": request_id, "program": program, **fields}


class RecordingConnection:
    """Stands in for a client connection: keeps every reply it is sent."""

    def __init__(self):
        self.sent = []

    async def send(self, message):
        self.sent.append(json.loads(json.dumps(message)))


def run_server(coroutine_function, **server_kwargs):
    """Run ``coroutine_function(server, connection)`` against a live server."""

    async def main():
        server = CompileServer(enable_policy=False, **server_kwargs)
        await server.start()
        try:
            return await coroutine_function(server, RecordingConnection())
        finally:
            await server.drain()

    return asyncio.run(main())


def ask(server, connection, message):
    """Send one request straight to the server's handler; return its reply."""

    async def go():
        await server._handle_request(connection, message, message["type"])
        return connection.sent[-1]

    return go()


class TestIdentity:
    def test_memoized_identity_equals_a_fresh_resolution_for_every_program(self):
        memo = ResolveMemo()
        for program in PROGRAMS:
            for parse, resolve, message in (
                (parse_compile_request, resolve_compile_request, compile_message),
                (parse_lint_request, resolve_lint_request, lint_message),
            ):
                first = parse(message("a", program))
                memo.put(first, resolve(first).identity)
                repeat = parse(message("b", program))
                assert memo.get(repeat) == resolve(repeat).identity

    def test_compile_and_lint_identities_never_alias(self):
        program = {"scenario": "scenario:call_web:1:0"}
        memo = ResolveMemo()
        compile_request = parse_compile_request(compile_message("a", program))
        memo.put(compile_request, resolve_compile_request(compile_request).identity)
        assert memo.get(parse_lint_request(lint_message("a", program))) is None

    def test_the_memo_holds_no_ir(self):
        request = parse_compile_request(compile_message("a", PROGRAMS[0]))
        identity = resolve_compile_request(request).identity
        for value in vars(identity).values():
            assert not isinstance(value, (Function, EdgeProfile))
        assert isinstance(identity, CompileIdentity)


class TestBound:
    class _Request:
        def __init__(self, number):
            self.number = number

        def signature(self):
            return f"request-{self.number}"

    def test_the_memo_never_grows_past_its_bound(self):
        memo = ResolveMemo()
        identity = CompileIdentity("k", "use:k", "f", "p", "parisc")
        for number in range(RESOLVE_MEMO_ENTRIES + 50):
            memo.put(self._Request(number), identity)
            assert memo.snapshot()["entries"] <= RESOLVE_MEMO_ENTRIES
        assert memo.evictions == 50
        # Least recently used goes first.
        assert memo.get(self._Request(0)) is None
        assert memo.get(self._Request(RESOLVE_MEMO_ENTRIES + 49)) == identity
        assert memo.snapshot() == {
            "entries": RESOLVE_MEMO_ENTRIES,
            "hits": 1,
            "misses": 1,
            "evictions": 50,
        }

    def test_a_hit_refreshes_recency(self):
        memo = ResolveMemo(max_entries=2)
        identity = CompileIdentity("k", "use:k", "f", "p", "parisc")
        first, second, third = (self._Request(n) for n in range(3))
        memo.put(first, identity)
        memo.put(second, identity)
        assert memo.get(first) == identity
        memo.put(third, identity)
        assert memo.get(second) is None
        assert memo.get(first) == identity


class TestServedAnswers:
    def test_memoized_answers_are_byte_identical_for_every_program(self, tmp_path):
        async def body(server, connection):
            for index, program in enumerate(PROGRAMS):
                fresh = await ask(server, connection, compile_message(f"c{index}", program))
                memoized = await ask(
                    server, connection, compile_message(f"m{index}", program)
                )
                # Two entries may build one procedure, so the first answer
                # can already be a hit; the repeat always is.
                assert memoized["service"]["cache"] == "hit", memoized
                truth = oracle_result_bytes(compile_message("o", program))
                assert response_result_bytes(fresh) == truth
                assert response_result_bytes(memoized) == truth

                fresh = await ask(server, connection, lint_message(f"l{index}", program))
                memoized = await ask(
                    server, connection, lint_message(f"n{index}", program)
                )
                assert memoized["service"]["cache"] == "hit", memoized
                request = parse_lint_request(lint_message("o", program))
                truth = json.dumps(
                    run_lint_request(resolve_lint_request(request)), sort_keys=True
                ).encode("utf-8")
                assert response_result_bytes(fresh) == truth
                assert response_result_bytes(memoized) == truth
            return server.resolve_memo.snapshot()

        memo = run_server(body, cache=str(tmp_path))
        assert memo["hits"] == 2 * len(PROGRAMS)
        assert memo["misses"] == 2 * len(PROGRAMS)

    def test_a_memory_tier_hit_makes_no_thread_hop(self, tmp_path, monkeypatch):
        hops = []
        real_to_thread = asyncio.to_thread

        async def counting_to_thread(function, *args, **kwargs):
            hops.append(getattr(function, "__name__", repr(function)))
            return await real_to_thread(function, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)
        program = {"scenario": "scenario:classic_mix:3:0"}

        async def body(server, connection):
            await ask(server, connection, compile_message("warm", program))
            await ask(server, connection, lint_message("warm-lint", program))
            assert hops  # the cold requests resolved and looked up off the loop
            hops.clear()
            compiled = await ask(server, connection, compile_message("hot", program))
            linted = await ask(server, connection, lint_message("hot-lint", program))
            return compiled, linted

        compiled, linted = run_server(body, cache=str(tmp_path))
        assert hops == []
        assert compiled["service"]["cache"] == "hit"
        assert linted["service"]["cache"] == "hit"

    def test_a_memo_hit_off_the_memory_tier_reads_disk_then_recompiles(self, tmp_path):
        # memory_entries=0: every cache hit has to come from disk.
        cache = CompileCache(tmp_path, memory_entries=0)
        program = {"scenario": "scenario:deep_loop_nest:2:1"}
        truth = oracle_result_bytes(compile_message("o", program))

        async def body(server, connection):
            cold = await ask(server, connection, compile_message("a", program))
            from_disk = await ask(server, connection, compile_message("b", program))
            cache.clear()
            recompiled = await ask(server, connection, compile_message("c", program))
            return cold, from_disk, recompiled, server.resolve_memo.snapshot()

        cold, from_disk, recompiled, memo = run_server(body, cache=cache)
        assert [r["service"]["cache"] for r in (cold, from_disk, recompiled)] == [
            "miss", "hit", "miss",
        ]
        for reply in (cold, from_disk, recompiled):
            assert response_result_bytes(reply) == truth
        assert memo["hits"] == 2 and memo["misses"] == 1
        assert cache.stats.misses == 2 and cache.stats.hits == 1


class TestFullPath:
    @pytest.mark.parametrize(
        "fields", [{"cache": "bypass"}, {"lint": "strict"}], ids=["bypass", "strict"]
    )
    def test_bypass_and_strict_requests_always_resolve_in_full(
        self, tmp_path, monkeypatch, fields
    ):
        resolutions = []
        real_resolve = server_module.resolve_compile_request

        def counting_resolve(request):
            resolutions.append(request.id)
            return real_resolve(request)

        monkeypatch.setattr(server_module, "resolve_compile_request", counting_resolve)
        program = {"scenario": "scenario:call_web:4:0"}

        async def body(server, connection):
            replies = [
                await ask(server, connection, compile_message(name, program, **fields))
                for name in ("a", "b", "c")
            ]
            return replies, server.resolve_memo.snapshot()

        replies, memo = run_server(body, cache=str(tmp_path))
        assert resolutions == ["a", "b", "c"]
        assert memo == {"entries": 0, "hits": 0, "misses": 0, "evictions": 0}
        truth = oracle_result_bytes(compile_message("o", program))
        for reply in replies:
            assert reply["type"] == "result", reply
            assert response_result_bytes(reply) == truth

    def test_a_draining_server_rejects_a_memo_hit(self, tmp_path):
        program = {"scenario": "scenario:pressure_sweep:1:0"}

        async def body(server, connection):
            warm = await ask(server, connection, compile_message("a", program))
            # Hold one request open so the drain stays in progress.
            server._request_started()
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0)
            assert server.draining
            rejected = await ask(server, connection, compile_message("b", program))
            memo = server.resolve_memo.snapshot()
            server._request_finished()
            await drain
            return warm, rejected, memo

        warm, rejected, memo = run_server(body, cache=str(tmp_path))
        assert warm["type"] == "result"
        assert rejected["type"] == "error"
        assert rejected["code"] == "shutting_down"
        assert memo["hits"] == 1


def test_each_cache_miss_is_looked_up_and_counted_once(embedded_server, tmp_path):
    """Three distinct compiles and one repeat: three misses, one hit."""

    from repro.service.client import ServiceClient

    with embedded_server(cache=str(tmp_path)) as emb:
        with ServiceClient(port=emb.port, timeout=60.0) as client:
            for index in (0, 1, 2, 0):
                client.compile(scenario=f"scenario:classic_mix:1:{index}")
        stats = emb.stats()
    assert stats["requests"]["compiled"] == 3
    assert stats["cache"]["misses"] == stats["requests"]["compiled"]
    assert stats["cache"]["hits"] == 1
    assert stats["cache"]["hit_rate"] == 0.25
    assert stats["resolve_memo"]["hits"] == 1


class TestObservability:
    def test_server_stats_and_metrics_report_the_memo(self, embedded_server, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.health import parse_metrics_text

        with embedded_server(cache=str(tmp_path)) as emb:
            with ServiceClient(port=emb.port, timeout=60.0) as client:
                for _ in range(3):
                    client.compile(scenario="scenario:chaos_cfg:1:0")
                memo = client.stats()["resolve_memo"]
                series = parse_metrics_text(client.metrics_text())
        assert memo == {"entries": 1, "hits": 2, "misses": 1, "evictions": 0}
        for stat, value in memo.items():
            assert series[f'repro_resolve_memo{{stat="{stat}"}}'] == value

    def test_the_router_reads_the_same_memo(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.fleet import Fleet
        from repro.service.health import parse_metrics_text

        with Fleet(shards=1, backend="thread", cache_root=str(tmp_path)) as fleet:
            with ServiceClient(port=fleet.port, timeout=60.0) as client:
                for _ in range(3):
                    client.compile(scenario="scenario:switch_dispatch:1:0")
                stats = client.stats()
                series = parse_metrics_text(client.metrics_text())
        memo = stats["resolve_memo"]
        assert memo == {"entries": 1, "hits": 2, "misses": 1, "evictions": 0}
        for stat, value in memo.items():
            assert series[f'repro_router_resolve_memo{{stat="{stat}"}}'] == value
        # The router forwarded once; its shard saw one resolution.
        shard_memo = stats["shards"][0]["stats"]["resolve_memo"]
        assert shard_memo["misses"] == 1
