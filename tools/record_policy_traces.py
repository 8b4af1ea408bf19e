#!/usr/bin/env python3
"""Record the policy-engine trace corpus under ``tests/service/traces/``.

Each scenario runs a real server (or fleet) under real load, records the
``metrics-trace/v1`` sample stream with the loadgen ``--record-metrics``
machinery, replays it through the default policy engine, and writes both
artefacts next to each other::

    <name>.trace.jsonl      the recorded sample stream
    <name>.decisions.jsonl  the pinned replay (policy-decision/v1 JSONL)

Three scenarios cover the rule catalogue end to end:

* ``steady``        modest closed-loop load on a healthy server — the
                    pin is *empty*: a quiet system must stay quiet;
* ``latency_burn``  open-loop overload against a deliberately tiny
                    queue — sustained ``overloaded`` rejections burn the
                    error-rate/availability budgets in both windows and
                    the replay must raise alarms;
* ``wedged_shard``  a three-shard process fleet with the watchdog parked
                    and remediation off; the victim shard is SIGSTOPped
                    mid-load and SIGCONTed a few seconds later, so the
                    recorded arc shows wedge -> stall past the rule bound
                    -> recovery, and the replay must order quarantine,
                    restart and readmit for that shard.

Recording is *not* bit-reproducible run to run (real sockets, real
signals) — but a committed trace's decisions are: the replay is a pure
function of the sample stream, which is exactly what
``tests/service/test_policy_traces.py`` and the CI ops job pin.  Rerun
this script only to regenerate the corpus after a deliberate contract
change, then commit both files per scenario together.  Run from the
repository root::

    python tools/record_policy_traces.py [--only NAME] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

DEFAULT_OUT = os.path.join(_REPO_ROOT, "tests", "service", "traces")


def _write_decisions(trace_path: str, decisions_path: str) -> int:
    """Replay a recorded trace through the default engine and pin it."""

    from repro.service.health import load_metric_trace
    from repro.service.policy import render_decisions, replay_decisions

    decisions = replay_decisions(load_metric_trace(trace_path))
    with open(decisions_path, "w", encoding="utf-8") as handle:
        handle.write(render_decisions(decisions))
    return len(decisions)


def record_steady(trace_path: str) -> None:
    """A healthy server under modest load: nothing to decide."""

    from repro.service.embedded import EmbeddedServer
    from repro.service.loadgen import build_request_plan, run_load

    plan = build_request_plan(mix="uniform", requests=40, seed=7)
    with EmbeddedServer() as server:
        report = run_load(
            server.host,
            server.port,
            plan,
            clients=2,
            check_oracle=True,
            record_metrics=trace_path,
            metrics_interval=0.2,
        )
    if not report.ok or report.metric_samples < 2:
        raise RuntimeError(f"steady run not clean: {report.to_json()}")


def record_latency_burn(trace_path: str) -> None:
    """Open-loop overload on a tiny queue: the error budget burns."""

    from repro.service.embedded import EmbeddedServer
    from repro.service.loadgen import build_request_plan, run_load

    plan = build_request_plan(mix="uniform", requests=900, seed=3)
    with EmbeddedServer(workers=1, max_queue=2) as server:
        report = run_load(
            server.host,
            server.port,
            plan,
            mode="open",
            rate=400.0,
            clients=8,
            retries=0,
            record_metrics=trace_path,
            metrics_interval=0.2,
        )
    if not report.errors.get("overloaded"):
        raise RuntimeError(
            f"burn run never overloaded the server: {report.to_json()}"
        )
    if report.metric_samples < 3:
        raise RuntimeError(f"burn run sampled too thinly: {report.to_json()}")


def record_wedged_shard(trace_path: str) -> None:
    """SIGSTOP a ring-owning shard mid-load, SIGCONT it later, and extend
    the recording past recovery so the replay sees the readmit arc."""

    from repro.service.fleet import Fleet
    from repro.service.health import load_metric_trace, write_metric_trace
    from repro.service.loadgen import build_request_plan, run_load
    from repro.service.protocol import parse_compile_request, resolve_compile_request
    from repro.service.ring import HashRing

    plan = build_request_plan(mix="uniform", requests=12, seed=11)
    members = ["s0", "s1", "s2"]
    ring = HashRing(members)
    counts = {member: 0 for member in members}
    for message in plan:
        resolved = resolve_compile_request(parse_compile_request(message))
        counts[ring.route(resolved.cache_key)] += 1
    victim = max(counts, key=lambda member: counts[member])

    freeze_seconds = 8.0
    with Fleet(
        shards=3,
        backend="process",
        stall_timeout=300.0,  # park the watchdog: the trace must show the stall
    ) as fleet:
        fleet.suspend_shard(victim)
        thaw = threading.Timer(freeze_seconds, fleet.resume_shard, args=(victim,))
        thaw.start()
        try:
            report = run_load(
                fleet.host,
                fleet.port,
                plan,
                clients=4,
                check_oracle=True,
                record_metrics=trace_path,
                metrics_interval=0.25,
            )
        finally:
            thaw.cancel()
            fleet.resume_shard(victim)
        # The loadgen sampler stops with the load; keep recording until the
        # victim has visibly recovered (healthy, nothing pending) so the
        # replay can readmit it, then rewrite the merged trace.
        samples = _raw_samples(trace_path)
        deadline = time.monotonic() + 20.0
        recovered = 0
        while recovered < 3 and time.monotonic() < deadline:
            stats = fleet.stats()
            samples.append(stats)
            shard_view = {
                shard["id"]: shard for shard in stats["health"].get("shards", [])
            }
            view = shard_view.get(victim)
            if view and view["healthy"] and view["pending"] == 0:
                recovered += 1
            time.sleep(0.25)
        write_metric_trace(trace_path, samples)

    if not report.ok:
        raise RuntimeError(f"wedged run not clean: {report.to_json()}")
    if recovered < 3:
        raise RuntimeError("victim shard never recovered on record")
    arc = load_metric_trace(trace_path)
    peak_stall = max(
        (
            shard["stalled_seconds"]
            for sample in arc
            for shard in sample.get("shards", [])
            if shard["id"] == victim
        ),
        default=0.0,
    )
    if peak_stall < 4.5:
        raise RuntimeError(
            f"recorded stall peaked at {peak_stall}s — too short for the "
            "default wedged-shard rule; rerecord"
        )


def _raw_samples(trace_path: str):
    """The raw ``stats`` payloads back out of a recorded trace file."""

    samples = []
    with open(trace_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and isinstance(record.get("stats"), dict):
                samples.append(record["stats"])
    return samples


SCENARIOS = {
    "steady": record_steady,
    "latency_burn": record_latency_burn,
    "wedged_shard": record_wedged_shard,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(SCENARIOS), default=None)
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="DIR")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    names = [args.only] if args.only else list(SCENARIOS)
    for name in names:
        trace_path = os.path.join(args.out, f"{name}.trace.jsonl")
        decisions_path = os.path.join(args.out, f"{name}.decisions.jsonl")
        print(f"recording {name} ...", flush=True)
        SCENARIOS[name](trace_path)
        count = _write_decisions(trace_path, decisions_path)
        print(
            f"  {os.path.relpath(trace_path, _REPO_ROOT)}: "
            f"{count} decision(s) pinned",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
