"""Load-generator tests: plan determinism, driver modes, invariant checking."""

from __future__ import annotations

import pytest

from repro.service.loadgen import (
    WARMUP_BURST,
    build_request_plan,
    fleet_invariant_violations,
    oracle_results,
    plan_signature,
    render_load_report,
    run_load,
)


class TestPlanDeterminism:
    @pytest.mark.parametrize("mix", ("uniform", "hot", "mixed"))
    def test_same_seed_same_plan(self, mix):
        a = build_request_plan(mix=mix, requests=24, seed=5)
        b = build_request_plan(mix=mix, requests=24, seed=5)
        assert a == b

    def test_different_seed_different_plan(self):
        a = build_request_plan(mix="hot", requests=24, seed=1)
        b = build_request_plan(mix="hot", requests=24, seed=2)
        assert a != b

    def test_ids_are_sequential(self):
        plan = build_request_plan(mix="uniform", requests=5, seed=0)
        assert [m["id"] for m in plan] == ["q0", "q1", "q2", "q3", "q4"]

    def test_uniform_mix_has_no_duplicates(self):
        plan = build_request_plan(mix="uniform", requests=30, seed=0)
        signatures = [plan_signature(m) for m in plan]
        assert len(set(signatures)) == len(signatures)

    @pytest.mark.parametrize("mix", ("hot", "mixed"))
    def test_skewed_mixes_open_with_a_duplicate_burst(self, mix):
        plan = build_request_plan(mix=mix, requests=20, seed=0)
        head = {plan_signature(m) for m in plan[:WARMUP_BURST]}
        assert len(head) == 1  # the first requests are the same hot program
        signatures = [plan_signature(m) for m in plan]
        assert len(set(signatures)) < len(signatures)  # duplicates exist

    def test_every_plan_entry_is_protocol_valid(self):
        for mix in ("uniform", "hot", "mixed"):
            for message in build_request_plan(mix=mix, requests=12, seed=3):
                plan_signature(message)  # parse_compile_request under the hood

    def test_targets_cycle(self):
        plan = build_request_plan(
            mix="uniform", requests=6, seed=0, targets=("parisc", "tiny")
        )
        assert [m["target"] for m in plan] == ["parisc", "tiny"] * 3

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            build_request_plan(mix="bursty")
        with pytest.raises(ValueError):
            build_request_plan(requests=0)
        with pytest.raises(ValueError):
            build_request_plan(targets=())


class TestCatalogMix:
    def test_same_seed_same_plan(self):
        a = build_request_plan(mix="catalog", requests=24, seed=5)
        b = build_request_plan(mix="catalog", requests=24, seed=5)
        assert a == b

    def test_warmup_burst_is_a_pyfunc(self):
        """The duplicate burst opens on the catalog's first *pyfunc* entry —
        translated functions lead the mix by construction."""

        from repro.workloads.catalog import get_catalog

        first_pyfunc = get_catalog().names("pyfunc")[0]
        plan = build_request_plan(mix="catalog", requests=12, seed=0)
        head = {plan_signature(m) for m in plan[:WARMUP_BURST]}
        assert len(head) == 1
        for message in plan[:WARMUP_BURST]:
            assert message["program"]["catalog"] == f"catalog:{first_pyfunc}:0:0"

    def test_round_robin_covers_the_whole_catalog(self):
        from repro.workloads.catalog import get_catalog

        catalog = get_catalog()
        entries = catalog.names("pyfunc") + catalog.names("scenario")
        plan = build_request_plan(
            mix="catalog", requests=len(entries) + WARMUP_BURST, seed=0
        )
        names = {
            m["program"]["catalog"].split(":")[1] for m in plan
        }
        assert names == set(entries)

    def test_catalog_plan_entries_are_protocol_valid(self):
        for message in build_request_plan(mix="catalog", requests=10, seed=3):
            plan_signature(message)  # parse_compile_request under the hood

    def test_legacy_mixes_never_emit_catalog_references(self):
        """Adding the catalog mix must not perturb the existing plans."""

        for mix in ("uniform", "hot", "mixed"):
            for message in build_request_plan(mix=mix, requests=16, seed=1):
                assert "catalog" not in message["program"]
                assert "scenario" in message["program"]


class TestOracle:
    def test_oracle_computed_once_per_unique_signature(self):
        plan = build_request_plan(mix="hot", requests=12, seed=1)
        truth = oracle_results(plan)
        assert set(truth) == {plan_signature(m) for m in plan}


class TestDriving:
    def test_closed_loop_with_oracle_check(self, embedded_server, tmp_path):
        plan = build_request_plan(mix="mixed", requests=16, seed=7)
        with embedded_server(cache=str(tmp_path / "cache")) as emb:
            report = run_load(
                emb.host, emb.port, plan, mode="closed", clients=4, check_oracle=True
            )
        assert report.ok, report.invariant_violations
        assert report.completed == 16
        assert report.protocol_errors == 0
        assert report.server_stats is not None
        assert report.server_stats["requests"]["completed"] >= 16

    def test_open_loop_smoke(self, embedded_server):
        plan = build_request_plan(mix="uniform", requests=8, seed=2)
        with embedded_server() as emb:
            report = run_load(
                emb.host, emb.port, plan, mode="open", clients=2, rate=200.0
            )
        assert report.ok
        assert report.completed == 8
        assert report.throughput_rps > 0

    def test_cold_burst_coalesces(self, embedded_server):
        """The warmup burst + concurrent clients on a cold server must
        register at least one coalesced response (the CI smoke invariant)."""

        plan = build_request_plan(mix="hot", requests=12, seed=9)
        with embedded_server() as emb:
            report = run_load(emb.host, emb.port, plan, mode="closed", clients=4)
        assert report.ok
        server_coalesced = report.server_stats["requests"]["coalesced"]
        assert max(report.coalesced_responses, server_coalesced) > 0

    def test_render_report_mentions_the_essentials(self, embedded_server):
        plan = build_request_plan(mix="uniform", requests=4, seed=0)
        with embedded_server() as emb:
            report = run_load(emb.host, emb.port, plan, clients=2)
        text = render_load_report(report)
        assert "4/4 completed" in text
        assert "invariants      : all held" in text
        assert "protocol errors : 0" in text

    def test_report_json_summary_is_serializable(self, embedded_server):
        import json

        plan = build_request_plan(mix="uniform", requests=4, seed=0)
        with embedded_server() as emb:
            report = run_load(emb.host, emb.port, plan, clients=2)
        payload = report.to_json()
        json.dumps(payload)
        assert payload["completed"] == 4
        assert "latency_ms" in payload

    def test_invalid_driver_options_rejected(self):
        plan = build_request_plan(mix="uniform", requests=2, seed=0)
        with pytest.raises(ValueError):
            run_load("127.0.0.1", 1, plan, mode="sideways")
        with pytest.raises(ValueError):
            run_load("127.0.0.1", 1, plan, clients=0)
        with pytest.raises(ValueError):
            run_load("127.0.0.1", 1, plan, mode="open", rate=0.0)


class TestDrainingStatsRace:
    """The end-of-run stats fetch racing a draining/dying server.

    Regression for the fleet-era race: loadgen used to fail a whole green
    run with a timeout when the server drained between the last response
    and the final ``stats`` request.  Now the report carries the explicit
    :data:`~repro.service.loadgen.PARTIAL_STATS` marker instead.
    """

    @staticmethod
    def _draining_server():
        """A protocol-faithful server that dies on ``stats`` requests.

        Answers the handshake and every compile (with a fixed dummy
        result), but hangs up the moment telemetry is requested — exactly
        what a connection to a shard killed at end-of-run looks like.
        """

        import asyncio
        import threading

        from repro.service.protocol import (
            decode_message,
            encode_message,
            hello_message,
        )

        ready = threading.Event()
        state = {}

        def serve():
            async def handle(reader, writer):
                await reader.readline()  # client hello
                writer.write(encode_message(hello_message({"name": "fake"})))
                await writer.drain()
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    message = decode_message(line)
                    if message.get("type") == "stats":
                        break  # drain: connection drops mid-telemetry
                    writer.write(
                        encode_message(
                            {
                                "type": "result",
                                "id": message.get("id"),
                                "result": {"answer": 1},
                                "pass_seconds": {},
                                "service": {"cache": "miss"},
                            }
                        )
                    )
                    await writer.drain()
                writer.close()

            async def main():
                server = await asyncio.start_server(handle, "127.0.0.1", 0)
                state["port"] = server.sockets[0].getsockname()[1]
                state["loop"] = asyncio.get_running_loop()
                state["stop"] = asyncio.Event()
                ready.set()
                await state["stop"].wait()
                server.close()
                await server.wait_closed()

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10.0)
        return state, thread

    def test_partial_stats_marker_instead_of_timeout(self):
        import time

        from repro.service.loadgen import PARTIAL_STATS

        state, thread = self._draining_server()
        try:
            plan = build_request_plan(mix="uniform", requests=6, seed=4)
            started = time.monotonic()
            report = run_load(
                "127.0.0.1", state["port"], plan, clients=2, timeout=30.0
            )
            elapsed = time.monotonic() - started
        finally:
            state["loop"].call_soon_threadsafe(state["stop"].set)
            thread.join(10.0)

        # The run itself is green and the stats are explicitly partial —
        # not a timeout error, not a missing field, and not a stall.
        assert report.ok, report.invariant_violations
        assert report.completed == len(plan)
        assert report.server_stats == PARTIAL_STATS
        assert report.server_stats["draining"] is True
        assert elapsed < 15.0

    def test_render_report_marks_partial_stats(self):
        state, thread = self._draining_server()
        try:
            plan = build_request_plan(mix="uniform", requests=4, seed=4)
            report = run_load(
                "127.0.0.1", state["port"], plan, clients=2, timeout=30.0
            )
        finally:
            state["loop"].call_soon_threadsafe(state["stop"].set)
            thread.join(10.0)
        text = render_load_report(report)
        assert "stats partial" in text
        assert "draining" in text


def fleet_snapshot(compiled, router=None):
    """A minimal ``fleet-stats/v1`` snapshot with per-shard compile counts."""

    return {
        "schema": "fleet-stats/v1",
        "router": dict(router or {}),
        "shards": [
            {"id": f"s{i}", "stats": {"requests": {"compiled": count}}}
            for i, count in enumerate(compiled)
        ],
    }


class TestFleetInvariant:
    def test_flags_a_fleet_wide_double_compile(self):
        plan = build_request_plan(mix="hot", requests=12, seed=3)
        unique = len({plan_signature(message) for message in plan})
        assert fleet_invariant_violations(fleet_snapshot([unique, 0]), plan) == []
        violations = fleet_invariant_violations(fleet_snapshot([unique, 1]), plan)
        assert len(violations) == 1
        assert f"{unique + 1} compiles for {unique} unique" in violations[0]
        assert "s1=1" in violations[0]

    @pytest.mark.parametrize(
        "stats",
        [
            None,
            {"schema": "service-stats/v1", "requests": {"compiled": 99}},
            fleet_snapshot([99], router={"shard_deaths": 1}),
            fleet_snapshot([99], router={"wedged": 1}),
            dict(fleet_snapshot([99]), shards=[{"id": "s0", "status": "unreachable"}]),
        ],
        ids=["none", "single-server", "shard-death", "wedged", "partial"],
    )
    def test_not_applied_where_it_cannot_be_sound(self, stats):
        plan = build_request_plan(mix="hot", requests=12, seed=3)
        assert fleet_invariant_violations(stats, plan) == []
