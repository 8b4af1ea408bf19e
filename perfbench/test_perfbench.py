"""Tests of the benchmark's own logic: quantiles, load accounting, metric set."""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT, TooFewSamples, Tracer, percentile
from perfbench.metrics import END_TO_END, PER_LAYER, benchmark_spec
from perfbench.openloop import (
    Outcome,
    Request,
    correct_frac,
    due_time_latencies,
    open_loop,
    per_batch_compile_ms,
    uncached_pass_seconds,
    within_slo_frac,
)


def _outcome(rid, due, received, response=None, sent=None):
    request = Request(rid, f"scenario:x:{rid}:0", b"", 0.0)
    return Outcome(request, due=due, sent=due if sent is None else sent,
                   received=received, response=response)


def _response(cache="miss", coalesced=False, compile_ms=5.0, batch_size=1,
              passes=(0.001, 0.002)):
    return {
        "type": "result",
        "timing": {"pass_seconds": dict(zip(("regalloc", "optimized"), passes)),
                   "queue_ms": 1.0, "compile_ms": compile_ms},
        "service": {"cache": cache, "coalesced": coalesced, "batch_size": batch_size},
    }


# -- quantiles --------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)
    values = list(range(1, 201))
    assert percentile(values, 95) == 190  # ten samples (191..200) lie beyond
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # the median needs no tail


# -- open-loop accounting ---------------------------------------------------


def test_latency_is_measured_from_the_due_time_not_the_send():
    late = _outcome("a", due=10.0, sent=10.5, received=10.6)
    assert due_time_latencies([late], {"a": True}) == pytest.approx([600.0])


def test_failures_count_against_correct_and_slo_fractions():
    outcomes = [
        _outcome("ok", 0.0, 0.010),
        _outcome("slow", 0.0, 0.500),
        _outcome("wrong", 0.0, 0.010),
        _outcome("lost", 0.0, None),
    ]
    ok = {"ok": True, "slow": True, "wrong": False, "lost": False}
    assert correct_frac(outcomes, ok) == 0.5
    assert within_slo_frac(outcomes, ok, slo_ms=100.0) == 0.25
    latencies = due_time_latencies(outcomes, ok)
    assert latencies[2] == float("inf") and latencies[3] == float("inf")


def test_open_loop_charges_a_server_stall_to_every_request_due_during_it():
    async def scenario():
        async def handle(reader, writer):
            first = True
            while True:
                line = await reader.readline()
                if not line:
                    break
                if first:
                    await asyncio.sleep(0.3)  # a stall: later requests queue up
                    first = False
                message = json.loads(line)
                writer.write((json.dumps({"id": message["id"]}) + "\n").encode())
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        requests = [Request(f"r{i}", "x", (json.dumps({"id": f"r{i}"}) + "\n").encode(),
                            i * 0.05) for i in range(5)]
        try:
            return await open_loop([(reader, writer)], requests)
        finally:
            writer.close()
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(scenario())
    ok = {rid: True for rid in outcomes}
    latencies = due_time_latencies(list(outcomes.values()), ok)
    # r1 was due 50 ms after r0 but answered only after the 300 ms stall.
    assert latencies[1] >= 200.0
    # Sending was on time: lateness is the generator's, not the server's.
    assert all(o.sent - o.due < 0.05 for o in outcomes.values())


# -- service measurement traps ---------------------------------------------


def test_cache_hit_and_coalesced_pass_seconds_are_excluded():
    assert uncached_pass_seconds(_response(cache="hit")) is None
    assert uncached_pass_seconds(_response(coalesced=True)) is None
    assert uncached_pass_seconds(_response()) == pytest.approx(0.003)


def test_batch_compile_time_is_counted_once_per_batch():
    batch_a = [_outcome(f"a{i}", 0, 1, _response(compile_ms=12.5, batch_size=3))
               for i in range(3)]
    batch_b = [_outcome("b", 0, 1, _response(compile_ms=4.0, batch_size=1))]
    hit = [_outcome("h", 0, 1, _response(cache="hit", compile_ms=0.0))]
    assert per_batch_compile_ms(batch_a + batch_b + hit) == [(12.5, 3), (4.0, 1)]


# -- spans ------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    parent = tracer.add("request", 0.0, 10.0, None, rid="r")
    tracer.add("queue", 1.0, 3.0, parent, rid="r")
    tracer.add("compile", 3.0, 5.0, parent, rid="r")
    assert tracer.self_times() == {"request": 6.0, "queue": 2.0, "compile": 2.0}


# -- the plan and the declared metrics --------------------------------------


def test_service_plan_is_seeded_with_exact_miss_counts():
    from perfbench.oracle import load_expected
    from perfbench.service_workload import build_plan

    pool = load_expected()["service_mixed"]
    hot = {entry["ref"] for entry in pool["hot"]}
    one, again, other = (build_plan(pool, seed, 10) for seed in (1, 1, 2))

    def lines(plan):
        return [r.line for part in plan.open_segments + plan.closed_chunks for r in part]

    assert lines(one) == lines(again)
    assert lines(one) != lines(other)
    assert one.miss_refs == other.miss_refs
    for mine, theirs in zip(one.open_segments + one.closed_chunks,
                            other.open_segments + other.closed_chunks):
        # Every seed puts the same requests into each segment, in its own order.
        assert sorted(r.ref for r in mine) == sorted(r.ref for r in theirs)
        misses = [r.ref for r in mine if r.ref not in hot]
        assert len(misses) == len(set(misses)) == round(len(mine) * 0.25)
    assert all(r.offset == 0.0 for chunk in one.closed_chunks for r in chunk)
    assert [r.offset for r in one.open_segments[1][:2]] == [0.0, 1 / 40.0]


def test_zipf_counts_are_exact_and_ranked():
    from perfbench.service_workload import zipf_counts

    counts = zipf_counts(75, 23)
    assert sum(counts) == 75
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 3 * counts[-1]


def test_benchmark_json_matches_the_reported_metrics():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 15) < 3420


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
