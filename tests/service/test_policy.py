"""Policy engine tests: rules, determinism, and the live shed-load path.

The rule tests drive the engine with hand-built ``health-sample/v1``
payloads (decisions are a pure function of the sample stream, so no
server is needed); the integration tests run a real server and assert
that ``shed_on`` actually turns into ``overloaded`` rejections at
admission — and that results stay bit-identical to the oracle with the
policy engine enabled.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.client import OverloadedError, ServiceClient
from repro.service.health import LATENCY_BUCKET_BOUNDS_MS, SLO
from repro.service.policy import (
    ACTIONS,
    DECISION_SCHEMA,
    PolicyEngine,
    RestartRule,
    ShedLoadRule,
    SloAlarmRule,
    WedgedShardRule,
    default_engine,
    default_rules,
    render_decisions,
    replay_decisions,
)
from repro.service.protocol import response_result_bytes
from repro.service.server import CompileServer
from tests.service.conftest import oracle_result_bytes


def make_sample(
    t=0.0,
    queue_limit=None,
    queue_depth=0.0,
    received=0,
    completed=0,
    errors=0,
    latency_buckets=None,
    shards=None,
):
    """A hand-built ``health-sample/v1`` payload (both windows identical)."""

    buckets = latency_buckets or [0] * (len(LATENCY_BUCKET_BOUNDS_MS) + 1)
    window = {
        "seconds": 10.0,
        "counts": {"received": received, "completed": completed, "errors": errors},
        "latency": {"count": sum(buckets), "buckets": buckets},
        "gauges": {"queue_depth": queue_depth},
        "rates": {},
    }
    sample = {
        "schema": "health-sample/v1",
        "t": t,
        "queue_limit": queue_limit,
        "windows": {"fast": window, "slow": dict(window)},
    }
    if shards is not None:
        sample["shards"] = shards
    return sample


class TestShedLoadRule:
    def engine(self):
        return PolicyEngine(rules=[ShedLoadRule()])

    def test_hysteresis_band(self):
        engine = self.engine()
        # Below the enter bound: nothing.
        assert engine.step(make_sample(t=1.0, queue_limit=64, queue_depth=40.0)) == []
        # Crossing 0.8: shed_on, exactly once.
        on = engine.step(make_sample(t=2.0, queue_limit=64, queue_depth=56.0))
        assert [d.action for d in on] == ["shed_on"]
        assert on[0].target == "admission" and on[0].window == "fast"
        assert engine.step(make_sample(t=3.0, queue_limit=64, queue_depth=60.0)) == []
        # Mid-band (0.25 < fraction < 0.8): still shedding, no decision.
        assert engine.step(make_sample(t=4.0, queue_limit=64, queue_depth=30.0)) == []
        # At or below 0.25: shed_off.
        off = engine.step(make_sample(t=5.0, queue_limit=64, queue_depth=16.0))
        assert [d.action for d in off] == ["shed_off"]
        assert engine.state.shedding is False

    def test_inert_without_a_queue_limit(self):
        engine = self.engine()
        assert engine.step(make_sample(t=1.0, queue_depth=1000.0)) == []

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            ShedLoadRule(enter_fraction=0.2, exit_fraction=0.5)
        with pytest.raises(ValueError):
            ShedLoadRule(enter_fraction=1.5)


class TestSloAlarmRule:
    def test_alarm_edges_latch(self):
        slo = SLO(name="err", kind="error_rate", threshold=0.01, burn_threshold=2.0)
        engine = PolicyEngine(rules=[SloAlarmRule()], slos=[slo])
        burning = make_sample(t=1.0, received=100, completed=50, errors=50)
        quiet = make_sample(t=2.0, received=100, completed=100, errors=0)
        on = engine.step(burning)
        assert [d.action for d in on] == ["alarm_on"]
        assert on[0].target == "err"
        assert on[0].threshold == 2.0
        # Latched: a still-burning sample emits nothing new.
        assert engine.step(dict(burning, t=1.5)) == []
        off = engine.step(quiet)
        assert [d.action for d in off] == ["alarm_off"]
        assert engine.state.alarms == set()


class TestShardLifecycleRules:
    def engine(self):
        return PolicyEngine(
            rules=[WedgedShardRule(stall_seconds=4.0), RestartRule(after_seconds=2.0)]
        )

    @staticmethod
    def shard(shard_id, healthy=True, pending=0, stalled=0.0):
        return {
            "id": shard_id,
            "healthy": healthy,
            "pending": pending,
            "stalled_seconds": stalled,
        }

    def test_quarantine_then_restart_then_readmit(self):
        engine = self.engine()
        # Healthy fleet: nothing.
        assert engine.step(make_sample(t=0.0, shards=[self.shard("s0"), self.shard("s1")])) == []
        # s1 stalls with pending work: quarantine, once.
        wedged = [self.shard("s0"), self.shard("s1", pending=3, stalled=5.0)]
        decisions = engine.step(make_sample(t=1.0, shards=wedged))
        assert [(d.action, d.target) for d in decisions] == [("quarantine", "s1")]
        assert engine.step(make_sample(t=2.0, shards=wedged)) == []
        # Past the grace period: restart.
        decisions = engine.step(make_sample(t=3.5, shards=[self.shard("s0")]))
        assert [(d.action, d.target) for d in decisions] == [("restart", "s1")]
        # The replacement comes back healthy: readmit, state fully cleared.
        healthy = [self.shard("s0"), self.shard("s1", pending=0, stalled=0.0)]
        decisions = engine.step(make_sample(t=6.0, shards=healthy))
        assert [(d.action, d.target) for d in decisions] == [("readmit", "s1")]
        assert engine.state.quarantined == {}
        assert engine.state.restarted == set()
        # A fresh wedge on the same shard is handled again.
        decisions = engine.step(
            make_sample(t=9.0, shards=[self.shard("s1", pending=1, stalled=9.0)])
        )
        assert [(d.action, d.target) for d in decisions] == [("quarantine", "s1")]

    def test_stall_without_pending_work_is_idle_not_wedged(self):
        engine = self.engine()
        idle = [self.shard("s0", pending=0, stalled=100.0)]
        assert engine.step(make_sample(t=1.0, shards=idle)) == []

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            WedgedShardRule(stall_seconds=0.0)
        with pytest.raises(ValueError):
            RestartRule(after_seconds=-1.0)


class TestEngineDeterminism:
    def samples(self):
        return [
            make_sample(t=0.0, queue_limit=64, queue_depth=10.0),
            make_sample(t=1.0, queue_limit=64, queue_depth=60.0),
            make_sample(
                t=2.0, queue_limit=64, queue_depth=60.0,
                received=100, completed=40, errors=60,
            ),
            make_sample(t=3.0, queue_limit=64, queue_depth=5.0),
        ]

    def test_same_samples_same_decision_bytes(self):
        first = render_decisions(replay_decisions(self.samples()))
        second = render_decisions(replay_decisions(self.samples()))
        assert first == second
        assert first  # the scenario above produces decisions

    def test_seq_is_monotonic_and_t_comes_from_the_sample(self):
        decisions = replay_decisions(self.samples())
        assert [d.seq for d in decisions] == list(range(len(decisions)))
        assert all(d.t in (0.0, 1.0, 2.0, 3.0) for d in decisions)

    def test_payload_shape(self):
        decisions = replay_decisions(self.samples())
        payload = decisions[0].payload()
        assert payload["schema"] == DECISION_SCHEMA
        assert set(payload) == {
            "schema", "seq", "t", "rule", "action", "target",
            "window", "value", "threshold", "reason",
        }
        assert payload["action"] in ACTIONS

    def test_default_rules_catalogue(self):
        names = [rule.name for rule in default_rules()]
        assert names == ["shed-load", "slo-alarm", "wedged-shard", "restart-shard"]


class TestServerShedding:
    """The live half: shed_on at admission really rejects with 'overloaded'."""

    def test_shed_on_rejects_and_shed_off_recovers_bit_identical(self):
        message = {
            "type": "compile",
            "id": "r1",
            "program": {"scenario": "scenario:call_web:3:0"},
        }

        async def scenario():
            server = CompileServer(max_queue=64, enable_policy=True)
            await server.start()
            try:
                # Simulate sustained queue pressure in the rolling window,
                # then tick: the engine must order shed_on.
                server.health.observe_gauge("queue_depth", 60.0)
                decisions = server.health_tick()
                assert [d.action for d in decisions] == ["shed_on"]
                assert server.shedding

                # A blocking client on a worker thread: the server runs on
                # this event loop.
                client = await asyncio.to_thread(
                    ServiceClient, port=server.port, retries=0
                )
                try:
                    with pytest.raises(OverloadedError):
                        await asyncio.to_thread(client.send_compile_message, message)
                    snapshot = await server.stats_snapshot_async()
                    assert snapshot["requests"]["rejected_shed"] == 1
                    assert snapshot["requests"]["rejected_overloaded"] == 1
                    assert snapshot["policy"]["enabled"] is True
                    assert snapshot["policy"]["shedding"] is True
                    assert snapshot["policy"]["decisions"] == 1

                    # Pressure subsides (tick far enough ahead that the
                    # windowed gauge maximum has aged out): shed_off, and
                    # the same request now serves bit-identically.
                    relief = server.health.now() + 30.0
                    decisions = server.health_tick(now=relief)
                    # The shed rejection itself was an error response, so
                    # this tick may legitimately raise burn alarms too —
                    # the load-shedding transition is what matters here.
                    assert "shed_off" in [d.action for d in decisions]
                    assert not server.shedding
                    response = await asyncio.to_thread(
                        client.send_compile_message, dict(message, id="r2")
                    )
                    assert response_result_bytes(response) == oracle_result_bytes(
                        message
                    )
                finally:
                    client.close()
            finally:
                await server.drain()

        asyncio.run(scenario())

    def test_policy_disabled_server_never_sheds(self):
        async def scenario():
            server = CompileServer(max_queue=64, enable_policy=False)
            await server.start()
            try:
                server.health.observe_gauge("queue_depth", 64.0)
                assert server.health_tick() == []
                assert not server.shedding
                snapshot = await server.stats_snapshot_async()
                assert snapshot["policy"]["enabled"] is False
            finally:
                await server.drain()

        asyncio.run(scenario())
