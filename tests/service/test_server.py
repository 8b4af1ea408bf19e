"""Server behaviour tests: serving, caching, coalescing, admission, drain.

Every test talks to a real server over real sockets (see ``conftest.py``).
"""

from __future__ import annotations

import asyncio
import json
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.client import OverloadedError, ServiceClient, ServiceError
from repro.service.fleet import Fleet
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    parse_compile_request,
    resolve_compile_request,
    response_result_bytes,
)
from tests.service.conftest import open_pipelined, oracle_result_bytes, scenario_message


@pytest.fixture(params=["server", "router"])
def endpoint(request, embedded_server):
    """Factory fixture over both JSON-lines endpoints.

    ``endpoint()`` is a context manager yielding an object with a live
    ``port``: a :class:`CompileServer` (via ``EmbeddedServer``) or a
    :class:`FleetRouter` in front of one thread-backend shard.
    """

    if request.param == "server":
        return embedded_server
    return lambda: Fleet(shards=1, backend="thread")


def protocol_error_count(stats) -> int:
    """The endpoint's ``protocol_errors`` counter from a ``stats`` reply."""

    if stats.get("schema") == "fleet-stats/v1":
        return stats["router"]["protocol_errors"]
    return stats["requests"]["protocol_errors"]


class TestBasicServing:
    def test_scenario_request_is_bit_identical_to_compile_many(self, embedded_server):
        message = {
            "type": "compile",
            "id": "r1",
            "program": {"scenario": "scenario:deep_loop_nest:5:1"},
            "target": "tiny",
        }
        with embedded_server() as emb:
            with ServiceClient(port=emb.port) as client:
                response = client.send_compile_message(message)
        assert response_result_bytes(response) == oracle_result_bytes(message)
        assert response["service"]["cache"] == "miss"
        assert response["service"]["coalesced"] is False
        assert response["timing"]["pass_seconds"]  # real pass timings came back

    def test_inline_ir_request_served(self, embedded_server, sample_ir):
        message = {
            "type": "compile",
            "id": "r1",
            "program": {"ir": sample_ir},
            "profile": {"invocations": 250.0, "probabilities": {"entry->merge": 0.75}},
        }
        with embedded_server() as emb:
            with ServiceClient(port=emb.port) as client:
                response = client.send_compile_message(message)
        assert response["result"]["name"] == "sample"
        assert response_result_bytes(response) == oracle_result_bytes(message)

    def test_every_registered_technique_subset_and_model(self, embedded_server):
        with embedded_server() as emb:
            with ServiceClient(port=emb.port) as client:
                for techniques in (["baseline"], ["baseline", "optimized"]):
                    for model in ("jump_edge", "execution_count"):
                        response = client.compile(
                            scenario="scenario:classic_mix:2:0",
                            target="micro",
                            cost_model=model,
                            techniques=techniques,
                        )
                        body = response["result"]
                        assert sorted(body["techniques_overhead"]) == sorted(techniques)
                        assert body["cost_model"] == model

    def test_bad_requests_get_bad_request_code_and_server_survives(
        self, embedded_server
    ):
        with embedded_server() as emb:
            with ServiceClient(port=emb.port) as client:
                for kwargs in (
                    dict(ir="func broken ("),
                    dict(scenario="scenario:not_a_family:0"),
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        client.compile(**kwargs)
                    assert excinfo.value.code == "bad_request"
                # The connection and server still work afterwards.
                ok = client.compile(scenario="scenario:call_web:0:0")
                assert ok["result"]["name"].startswith("call_web")


class TestCacheFront:
    def test_warm_replay_is_a_hit_and_bit_identical(self, embedded_server, tmp_path):
        message = {
            "type": "compile",
            "id": "r1",
            "program": {"scenario": "scenario:switch_dispatch:1:0"},
        }
        with embedded_server(cache=str(tmp_path / "cache")) as emb:
            with ServiceClient(port=emb.port) as client:
                cold = client.send_compile_message(message)
                warm = client.send_compile_message(dict(message, id="r2"))
        assert cold["service"]["cache"] == "miss"
        assert warm["service"]["cache"] == "hit"
        assert response_result_bytes(cold) == response_result_bytes(warm)
        assert response_result_bytes(warm) == oracle_result_bytes(message)
        # A hit replays the cold compile's pass timings (documented).
        assert warm["timing"]["pass_seconds"] == cold["timing"]["pass_seconds"]

    def test_cache_survives_across_server_instances(self, embedded_server, tmp_path):
        directory = str(tmp_path / "cache")
        message = {
            "type": "compile",
            "id": "r1",
            "program": {"scenario": "scenario:pressure_sweep:2:3"},
        }
        with embedded_server(cache=directory) as emb:
            with ServiceClient(port=emb.port) as client:
                cold = client.send_compile_message(message)
        with embedded_server(cache=directory) as emb:
            with ServiceClient(port=emb.port) as client:
                warm = client.send_compile_message(message)
        assert warm["service"]["cache"] == "hit"
        assert response_result_bytes(cold) == response_result_bytes(warm)

    def test_bypass_policy_skips_the_cache(self, embedded_server, tmp_path):
        message = {
            "type": "compile",
            "id": "r1",
            "program": {"scenario": "scenario:call_web:4:0"},
            "cache": "bypass",
        }
        with embedded_server(cache=str(tmp_path / "cache")) as emb:
            with ServiceClient(port=emb.port) as client:
                first = client.send_compile_message(message)
                second = client.send_compile_message(dict(message, id="r2"))
        assert first["service"]["cache"] == "bypass"
        assert second["service"]["cache"] == "bypass"
        assert response_result_bytes(first) == response_result_bytes(second)


def compile_concurrently(port, messages, **client_options):
    """Send each message on its own blocking client, all at once.

    Returns each message's response, or the exception its client raised.
    """

    def send(message):
        try:
            with ServiceClient(port=port, **client_options) as client:
                return client.send_compile_message(message)
        except ServiceError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=len(messages)) as pool:
        return list(pool.map(send, messages))


class TestCoalescing:
    def test_concurrent_identical_requests_compile_once(
        self, embedded_server, compile_hold
    ):
        fanout = 5
        with embedded_server(batch_max_requests=8) as emb:

            async def burst():
                connections = [await open_pipelined(emb.port) for _ in range(fanout)]
                try:
                    tasks = [
                        asyncio.ensure_future(
                            c.request(
                                scenario_message(f"r{i}", "scenario:irreducible_loop:9:0")
                            )
                        )
                        for i, c in enumerate(connections)
                    ]
                    # The first compile is held until every duplicate waits on it.
                    await asyncio.to_thread(compile_hold.wait_admitted, fanout)
                    compile_hold.release.set()
                    return await asyncio.gather(*tasks)
                finally:
                    compile_hold.release.set()
                    for c in connections:
                        c.close("client closed")

            responses = asyncio.run(burst())
            stats = emb.stats()
        bodies = {response_result_bytes(r) for r in responses}
        assert len(bodies) == 1
        coalesced = [r for r in responses if r["service"]["coalesced"]]
        assert len(coalesced) == fanout - 1
        assert stats["requests"]["compiled"] == 1
        assert stats["requests"]["coalesced"] == fanout - 1

    def test_coalesced_responses_match_the_oracle(self, embedded_server):
        message = {
            "type": "compile",
            "id": "x",
            "program": {"scenario": "scenario:chaos_cfg:3:2"},
            "target": "micro",
        }
        with embedded_server() as emb:
            responses = compile_concurrently(
                emb.port, [dict(message, id=f"r{i}") for i in range(3)]
            )
        truth = oracle_result_bytes(message)
        assert all(response_result_bytes(r) == truth for r in responses)


class TestAdmissionControl:
    def test_overload_rejected_with_retryable_error(
        self, embedded_server, compile_hold
    ):
        # Queue bound 1 and single-entry batches, with the compiler held:
        # the first request occupies the compiler, the next one the queue,
        # and every further unique request must be rejected.
        messages = [
            scenario_message(f"r{i}", f"scenario:pressure_sweep:7:{i}")
            for i in range(5)
        ]
        with embedded_server(max_queue=1, batch_max_requests=1) as emb:
            with ThreadPoolExecutor(max_workers=2) as pool:
                first = pool.submit(compile_concurrently, emb.port, messages[:1], retries=0)
                try:
                    compile_hold.wait_admitted(1)
                    rest = pool.submit(
                        compile_concurrently, emb.port, messages[1:], retries=0
                    )
                    compile_hold.wait_admitted(len(messages))
                finally:
                    compile_hold.release.set()
                outcomes = first.result() + rest.result()
            stats = emb.stats()
        rejected = [o for o in outcomes if isinstance(o, OverloadedError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(rejected) == 3 and len(served) == 2
        assert isinstance(outcomes[0], dict)
        assert stats["requests"]["rejected_overloaded"] == len(rejected)

    def test_client_retry_eventually_succeeds(self, embedded_server):
        with embedded_server(max_queue=1, batch_max_requests=1) as emb:
            outcomes = compile_concurrently(
                emb.port,
                [
                    scenario_message(f"r{i}", f"scenario:pressure_sweep:8:{i}")
                    for i in range(5)
                ],
                retries=8,
                backoff=0.05,
            )
        # With retries and a fast-draining queue every request succeeds.
        assert all(isinstance(o, dict) for o in outcomes)


class TestHandshake:
    def test_version_mismatch_rejected_and_closed(self, endpoint):
        with endpoint() as emb:
            with socket.create_connection(("127.0.0.1", emb.port), timeout=10) as raw:
                raw.sendall(encode_message({"type": "hello", "protocol": 99}))
                with raw.makefile("rb") as stream:
                    reply = decode_message(stream.readline())
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"

    def test_first_message_must_be_hello(self, endpoint):
        with endpoint() as emb:
            with socket.create_connection(("127.0.0.1", emb.port), timeout=10) as raw:
                raw.sendall(encode_message({"type": "stats"}))
                with raw.makefile("rb") as stream:
                    reply = decode_message(stream.readline())
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"

    def test_matching_version_gets_server_info(self, embedded_server):
        with embedded_server(max_queue=7) as emb:
            with socket.create_connection(("127.0.0.1", emb.port), timeout=10) as raw:
                raw.sendall(encode_message({"type": "hello", "protocol": PROTOCOL_VERSION}))
                with raw.makefile("rb") as stream:
                    reply = decode_message(stream.readline())
        assert reply["type"] == "hello"
        assert reply["protocol"] == PROTOCOL_VERSION
        assert reply["server"]["max_queue"] == 7
        assert sorted(reply["server"]) == [
            "batch_max_requests", "cache", "max_queue", "policy", "workers",
        ]

    def test_unknown_message_type_is_bad_request(self, endpoint):
        with endpoint() as emb:
            with ServiceClient(port=emb.port) as client:
                client._send({"type": "frobnicate", "id": "z"})
                reply = client._receive()
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"

    def test_no_client_can_read_or_write_the_shared_tier(self, endpoint):
        """``cache-put``/``cache-get`` are unknown types on both endpoints:
        a forged entry put under a scenario's cache key is refused, the
        next compile of that scenario answers with the oracle bytes, and
        the connection keeps being served."""

        message = scenario_message("f1", "scenario:call_web:0:0")
        key = resolve_compile_request(parse_compile_request(message)).cache_key
        forged = {
            "type": "cache-put",
            "id": "p1",
            "key": key,
            "entry": {"result": {"forged": True}},
        }
        with endpoint() as emb:
            with ServiceClient(port=emb.port, timeout=120.0) as client:
                client._send(forged)
                put_reply = client._receive()
                compiled = client.send_compile_message(message)
                client._send({"type": "cache-get", "id": "p2", "key": key})
                get_reply = client._receive()
                assert client.stats()  # still served
        for reply, request_id in ((put_reply, "p1"), (get_reply, "p2")):
            assert reply["type"] == "error"
            assert reply["code"] == "bad_request"
            assert reply["id"] == request_id
            assert "unknown message type" in reply["message"]
        assert response_result_bytes(compiled) == oracle_result_bytes(message)


class TestStatsAndDrain:
    def test_stats_request_shape(self, embedded_server, tmp_path):
        with embedded_server(cache=str(tmp_path / "cache")) as emb:
            with ServiceClient(port=emb.port) as client:
                client.compile(scenario="scenario:call_web:1:0")
                stats = client.stats()
        assert stats["schema"] == "service-stats/v1"
        for section in ("requests", "rates", "batches", "queue", "latency_ms", "cache"):
            assert section in stats
        assert stats["requests"]["completed"] == 1
        assert stats["cache"]["entries"] == 1
        assert json.dumps(stats)  # fully JSON-serializable

    def test_shutdown_request_drains_and_rejects_new_work(self, embedded_server):
        with embedded_server() as emb:
            with ServiceClient(port=emb.port) as client:
                client.compile(scenario="scenario:call_web:2:0")
                client.shutdown()
            # The listening socket closes once the drain finishes; poll
            # briefly for the OS to reflect it.
            import time

            for _ in range(100):
                try:
                    probe = socket.create_connection(("127.0.0.1", emb.port), timeout=1)
                except OSError:
                    break
                probe.close()
                time.sleep(0.05)
            else:
                pytest.fail("server kept accepting connections after shutdown")

    def test_draining_server_rejects_compiles_with_shutting_down(self, embedded_server):
        with embedded_server() as emb:
            with ServiceClient(port=emb.port, retries=0) as client:
                client.shutdown()
                # The already-open connection stays usable during drain;
                # new compile work must be refused.
                with pytest.raises(ServiceError) as excinfo:
                    client.compile(scenario="scenario:call_web:0:0")
                assert excinfo.value.code in ("shutting_down", "transport")


class TestRobustness:
    def test_drain_completes_with_an_idle_client_still_connected(self, endpoint):
        """Graceful drain must not wait for idle clients to hang up
        (``Server.wait_closed`` on 3.12+ blocks until every accepted
        connection finishes — the drain closes them itself first)."""

        with endpoint() as emb:
            idle = ServiceClient(port=emb.port)  # connected, never sends
            try:
                with ServiceClient(port=emb.port) as active:
                    active.compile(scenario="scenario:call_web:5:0")
                    active.shutdown()
                # Exiting the endpoint context joins the drain; a
                # deadlock here fails the test by timeout.
            finally:
                idle.close()

    def test_oversized_frame_answered_and_connection_dropped(self, endpoint):
        from repro.service.protocol import MAX_FRAME_BYTES

        with endpoint() as emb:
            with socket.create_connection(("127.0.0.1", emb.port), timeout=30) as raw:
                raw.sendall(encode_message({"type": "hello", "protocol": PROTOCOL_VERSION}))
                with raw.makefile("rb") as stream:
                    assert decode_message(stream.readline())["type"] == "hello"
                    # One line far beyond the stream limit.
                    raw.sendall(b"x" * (MAX_FRAME_BYTES + 4096) + b"\n")
                    reply = decode_message(stream.readline())
                    assert reply["type"] == "error"
                    assert reply["code"] == "protocol"
                    # The server closed the stream afterwards.
                    assert stream.readline() == b""
            # And it still serves fresh connections.
            with ServiceClient(port=emb.port) as client:
                response = client.compile(scenario="scenario:call_web:0:0")
                assert response["type"] == "result"

    def test_stats_and_shutdown_reject_unknown_fields(self, endpoint):
        with endpoint() as emb:
            with ServiceClient(port=emb.port) as client:
                client._send({"type": "stats", "id": "s1", "scope": "all"})
                reply = client._receive()
                assert reply["type"] == "error"
                assert reply["code"] == "bad_request"
                client._send({"type": "shutdown", "id": "s2", "force": True})
                reply = client._receive()
                assert reply["type"] == "error"
                assert reply["code"] == "bad_request"
                # Valid requests still work on the same connection (and the
                # rejected shutdown did NOT start a drain).
                assert protocol_error_count(client.stats()) == 2

    def test_rejected_admin_request_drops_a_non_string_id(self, endpoint):
        with endpoint() as emb:
            with ServiceClient(port=emb.port) as client:
                client._send({"type": "stats", "id": {"nested": [1, 2]}})
                reply = client._receive()
                assert reply["type"] == "error"
                assert reply["code"] == "bad_request"
                assert "id" not in reply
                # A string id is still echoed.
                client._send({"type": "metrics", "id": "m1", "scope": "all"})
                reply = client._receive()
                assert reply["code"] == "bad_request"
                assert reply["id"] == "m1"
