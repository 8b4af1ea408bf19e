"""Fleet fault injection: real processes, real signals, real sockets.

The satellite battery the ISSUE mandates, on the process backend:

* **death** — SIGKILL a shard while it holds in-flight forwards; the
  router must re-route with zero dropped and zero duplicated responses,
  and the hash ring must converge to the survivors;
* **wedge** — SIGSTOP a shard so it stops reading; the stall watchdog's
  bounded-progress check must isolate it (bounded-write backpressure
  never blocks the router loop) and the load must finish green on the
  healthy shards;
* **remediation** — SIGSTOP a shard with the watchdog effectively off
  and the fleet running with ``remediate=True``: the *policy engine* —
  not the watchdog, not the test — must quarantine the wedged shard,
  drain+restart it, and readmit the replacement into the ring.

These tests spawn actual ``python -m repro serve`` subprocesses, so they
are the slowest in the service suite; everything signal-free lives in
``test_fleet.py`` on the thread backend.
"""

from __future__ import annotations

import threading
import time

from repro.service.fleet import Fleet
from repro.service.loadgen import build_request_plan, run_load
from repro.service.policy import PolicyEngine, RestartRule, WedgedShardRule
from repro.service.protocol import parse_compile_request, resolve_compile_request
from repro.service.ring import HashRing


def owners_for(plan, members):
    """shard id -> number of plan requests it owns, via the public ring."""

    ring = HashRing(members)
    counts = {member: 0 for member in members}
    for message in plan:
        resolved = resolve_compile_request(parse_compile_request(message))
        counts[ring.route(resolved.cache_key)] += 1
    return counts


def test_sigkill_mid_batch_reroutes_without_loss():
    """Kill a shard while requests are in flight on it: every request is
    answered exactly once, byte-identical to the oracle, and the ring
    shrinks to the survivors."""

    plan = build_request_plan(mix="uniform", requests=30, seed=5)
    with Fleet(shards=3, backend="process", stall_timeout=10.0) as fleet:
        state = {"victim": None}
        done = threading.Event()

        def killer():
            # Strike the first shard seen holding in-flight forwards —
            # that is what makes the kill "mid-batch".
            deadline = time.monotonic() + 60.0
            while not done.is_set() and time.monotonic() < deadline:
                stats = fleet.stats()
                busy = [s for s in stats["shards"] if s["pending"] > 0]
                if busy:
                    victim = max(busy, key=lambda s: s["pending"])
                    state["victim"] = victim["id"]
                    fleet.kill_shard(victim["id"])
                    return
                time.sleep(0.02)

        thread = threading.Thread(target=killer)
        thread.start()
        report = run_load(
            fleet.host, fleet.port, plan, clients=6, check_oracle=True
        )
        done.set()
        thread.join(10.0)
        stats = fleet.stats()

    victim = state["victim"]
    assert victim is not None, "no shard ever held pending work"
    # Zero dropped, zero duplicated, zero wrong bytes.
    assert report.ok, report.invariant_violations or report.errors
    assert report.completed == len(plan)
    assert report.errors == {}
    assert report.protocol_errors == 0
    assert report.transport_errors == 0
    # The ring converged to the survivors; the death is attributed.
    assert stats["router"]["shard_deaths"] == 1
    assert victim in stats["lost_shards"]
    assert victim not in stats["ring"]["members"]
    assert len(stats["ring"]["members"]) == 2
    # The in-flight forwards that died were actually re-routed.
    assert stats["router"]["rerouted"] >= 1


def test_sigstop_wedged_shard_is_isolated_by_the_watchdog():
    """Freeze a shard that owns live keys: the watchdog detects stalled
    pending work within the stall bound, closes the link, and the load
    finishes green on the surviving shards."""

    plan = build_request_plan(mix="uniform", requests=12, seed=11)
    members = ["s0", "s1", "s2"]
    counts = owners_for(plan, members)
    victim = max(counts, key=lambda member: counts[member])
    assert counts[victim] > 0

    with Fleet(shards=3, backend="process", stall_timeout=2.0) as fleet:
        fleet.suspend_shard(victim)
        started = time.monotonic()
        report = run_load(
            fleet.host, fleet.port, plan, clients=4, check_oracle=True
        )
        elapsed = time.monotonic() - started
        stats = fleet.stats()
        # Unfreeze before teardown so the drain can reap the process.
        fleet.resume_shard(victim)

    assert report.ok, report.invariant_violations or report.errors
    assert report.completed == len(plan)
    assert report.errors == {}
    assert report.transport_errors == 0
    # The watchdog, not a transport error, took the shard out.
    assert stats["router"]["wedged"] == 1
    assert victim in stats["lost_shards"]
    assert stats["lost_shards"][victim].startswith("wedged:")
    assert victim not in stats["ring"]["members"]
    # Isolation was bounded by the stall timeout, not a full send timeout.
    assert elapsed < 60.0


def test_policy_engine_quarantines_restarts_and_readmits_a_wedged_shard():
    """Freeze a shard that owns live keys with the watchdog parked far out
    of range: the *policy engine* must issue quarantine, then drain+restart
    the shard process, then readmit the healthy replacement — while the
    load finishes green on the surviving shards and the ring returns to
    full strength."""

    plan = build_request_plan(mix="uniform", requests=12, seed=11)
    members = ["s0", "s1", "s2"]
    counts = owners_for(plan, members)
    victim = max(counts, key=lambda member: counts[member])
    assert counts[victim] > 0

    engine = PolicyEngine(
        rules=[WedgedShardRule(stall_seconds=1.5), RestartRule(after_seconds=0.5)]
    )
    with Fleet(
        shards=3,
        backend="process",
        # The watchdog would win the race at its default bound; park it so
        # any isolation observed here is attributable to the policy engine.
        stall_timeout=300.0,
        remediate=True,
        policy=engine,
        policy_interval=0.25,
    ) as fleet:
        fleet.suspend_shard(victim)
        report = run_load(
            fleet.host, fleet.port, plan, clients=4, check_oracle=True
        )
        # The engine acts asynchronously: wait for the full lifecycle to
        # land in the decision log (restart SIGCONTs and reaps the frozen
        # process itself — the test never resumes the victim).
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            actions = [(d.action, d.target) for d in fleet.decisions()]
            if ("readmit", victim) in actions:
                break
            time.sleep(0.1)
        stats = fleet.stats()
        decisions = fleet.decisions()

    # The load itself stayed green throughout.
    assert report.ok, report.invariant_violations or report.errors
    assert report.completed == len(plan)
    assert report.errors == {}
    assert report.transport_errors == 0

    # The policy engine — not the watchdog, not the test — ran the whole
    # lifecycle, in order, against the victim shard.
    lifecycle = [
        (d.action, d.target)
        for d in decisions
        if d.target == victim and d.action in ("quarantine", "restart", "readmit")
    ]
    assert lifecycle == [
        ("quarantine", victim),
        ("restart", victim),
        ("readmit", victim),
    ]
    rules = {d.action: d.rule for d in decisions if d.target == victim}
    assert rules["quarantine"] == "wedged-shard"
    assert rules["restart"] == "restart-shard"

    # Quarantine is attributed as a wedge, and the restarted replacement
    # rejoined: the ring is back to full strength with nothing lost.
    assert stats["router"]["wedged"] == 1
    assert victim not in stats["lost_shards"]
    assert sorted(stats["ring"]["members"]) == members


def test_killed_shard_does_not_lose_the_tier():
    """Answers a dead shard already published stay servable: the tier
    outlives its contributors."""

    plan = build_request_plan(mix="uniform", requests=6, seed=23)
    with Fleet(shards=2, backend="process") as fleet:
        first = run_load(fleet.host, fleet.port, plan, clients=2, check_oracle=True)
        assert first.ok and first.completed == len(plan)
        stored = fleet.stats()["tier"]["stored"]
        assert stored > 0
        fleet.kill_shard("s0")
        # Replay the identical plan: every unique key is already in the
        # tier, so the router answers without compiling anywhere.
        second = run_load(fleet.host, fleet.port, plan, clients=2, check_oracle=True)
        stats = fleet.stats()

    assert second.ok and second.completed == len(plan)
    assert second.tier_hit_responses == len(plan)
    assert stats["tier"]["stored"] == stored  # nothing recompiled or lost
    assert stats["ring"]["members"] == ["s1"]
