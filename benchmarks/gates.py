#!/usr/bin/env python3
"""Release gates: fixed-size runs checked against fixed bounds.

There is one gate each for the parallel engine, the compile cache, the
service, the fleet, the telemetry plane, the allocator hot path and the
Python frontend.  Every gate runs one experiment of constant size and
returns its measured values; each check compares one value with its bound
and records ``pass``, ``fail`` or, when the host cannot run the check
meaningfully, ``skipped`` with the reason (the measured value is recorded
either way).  Timed values
are the median and interquartile range of the samples the gate takes.  The
result is one ``gates/v1`` JSON document (see ``docs/performance.md``); the
exit status is non-zero when any check fails or any gate raises.

Run from a checkout::

    PYTHONPATH=src python benchmarks/gates.py                  # every gate
    PYTHONPATH=src python benchmarks/gates.py cache --output /tmp/gates.json
    PYTHONPATH=src python benchmarks/gates.py --self-test

``--self-test`` runs no gate: it plants, for every check of every gate, a
value at its bound (must pass) and one just past it (must fail).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

SCHEMA = "gates/v1"

#: Suite scale of the ``parallel`` and ``cache`` gates, and the pool size.
SUITE_SCALE = 0.1
PARALLEL_WORKERS = 2
#: Requests per leg and concurrent clients of the ``service`` gate.
SERVICE_REQUESTS = 40
SERVICE_CLIENTS = 4
#: Requests per leg, clients and shard counts of the ``fleet`` gate.
FLEET_REQUESTS = 48
FLEET_CLIENTS = 8
FLEET_SHARDS = (1, 2, 4)
#: Cold throughput of the largest fleet relative to one shard, on more than
#: one core (compiles are CPU-bound: one core caps the ratio near 1.0).
FLEET_MIN_SCALING = 1.8
#: Timed calls per sample and samples per leg of the ``health`` gate.
HEALTH_ITERATIONS = 2000
HEALTH_SAMPLES = 3
#: Generator sizes of the ``hotpath`` gate; 24 segments is ~300
#: instructions and 768 is ~9k, the two ends of ``scaling_ratio``.
SCALING_SEGMENTS = (6, 24, 96, 384, 768)
SCALING_SAMPLES = 3
#: Seeded differential trials per compiled pyfunc in the ``frontend`` gate.
FRONTEND_TRIALS = 2

GATES = {}


def gate(*checks):
    """Register a gate function with its ``(value name, op, bound)`` checks."""

    def register(function):
        GATES[function.__name__] = (function, checks)
        return function

    return register


class Skip:
    """A measured value that is recorded but not gated on this host."""

    def __init__(self, value, reason):
        self.value = value
        self.reason = reason


def spread(samples):
    """Median and interquartile range of a list of samples."""

    samples = sorted(samples)
    if len(samples) > 1:
        low, _median, high = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        low = high = samples[0]
    return {"median": statistics.median(samples), "iqr": high - low, "n": len(samples)}


def latency_spread(histogram):
    """The same summary for a loadgen latency histogram (milliseconds, at
    the histogram's bucket resolution)."""

    return {
        "median": histogram.quantile(50),
        "iqr": histogram.quantile(75) - histogram.quantile(25),
        "n": histogram.count,
    }


def evaluate(checks, values):
    """One verdict per check: compare the (median) value with its bound."""

    results = []
    for name, op, bound in checks:
        value = values[name]
        result = {"name": name, "op": op, "bound": bound}
        if isinstance(value, Skip):
            result.update(value=value.value, verdict="skipped", reason=value.reason)
        else:
            number = value["median"] if isinstance(value, dict) else value
            holds = number <= bound if op == "<=" else number >= bound
            result.update(value=value, verdict="pass" if holds else "fail")
        results.append(result)
    return results


def load_values(prefix, report):
    """Failures, throughput and latency of one loadgen leg."""

    failures = (
        report.requests_planned - report.completed
        + report.error_count
        + report.protocol_errors
        + report.transport_errors
        + len(report.invariant_violations)
    )
    return {
        f"{prefix}_failures": failures,
        f"{prefix}_rps": report.throughput_rps,
        f"{prefix}_latency_ms": latency_spread(report.latency),
    }


# -- gates ---------------------------------------------------------------------


@gate(("differing_measurements", "<=", 0))
def parallel():
    """Serial and process-pool suite runs produce bit-identical measurements.

    Both legs run with the compile cache off: a hit on the second leg would
    time the store instead of the engine.
    """

    from repro.evaluation.runner import run_suite

    views, values = [], {}
    for leg, workers in (("serial", 1), ("parallel", PARALLEL_WORKERS)):
        started = time.perf_counter()
        measurement = run_suite(scale=SUITE_SCALE, workers=workers, cache=None)
        values[f"{leg}_s"] = spread([time.perf_counter() - started])
        views.append(measurement.deterministic_view())
    values["differing_measurements"] = int(views[0] != views[1])
    return values


@gate(("differing_measurements", "<=", 0), ("warm_hits", ">=", 1))
def cache():
    """No-cache, cold and warm suite runs agree, and the warm run hits.

    The cold and warm legs use a fresh temporary store (deleted afterwards),
    each through a new ``CompileCache`` instance, so warm hits come from
    disk as they would across processes.
    """

    from repro.cache.store import CompileCache
    from repro.evaluation.runner import run_suite

    directory = tempfile.mkdtemp(prefix="repro-gate-cache-")
    views, values = [], {}
    try:
        for leg in ("nocache", "cold", "warm"):
            store = None if leg == "nocache" else CompileCache(directory)
            started = time.perf_counter()
            measurement = run_suite(scale=SUITE_SCALE, workers=1, cache=store)
            values[f"{leg}_s"] = spread([time.perf_counter() - started])
            views.append(measurement.deterministic_view())
        values["warm_hits"] = store.stats.hits
        values["entries"] = store.entry_count()
        values["disk_bytes"] = store.disk_bytes()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    values["differing_measurements"] = sum(view != views[0] for view in views[1:])
    return values


@gate(
    ("cold_failures", "<=", 0),
    ("warm_failures", "<=", 0),
    ("warm_cache_hits", ">=", 1),
    ("skewed_failures", "<=", 0),
    ("skewed_coalesced", ">=", 1),
)
def service():
    """An embedded server under three traffic shapes.

    * cold — distinct programs against a fresh store: every request compiles;
    * warm — the same plan against a new server over the same store: hits;
    * skewed — a zipf "hot program" mix on a cold server, oracle-checked:
      identical concurrent requests must coalesce.
    """

    from repro.service.embedded import EmbeddedServer
    from repro.service.loadgen import build_request_plan, run_load

    values = {}

    def leg(name, plan, check_oracle=False, **options):
        with EmbeddedServer(workers=1, **options) as server:
            report = run_load(
                server.host, server.port, plan,
                mode="closed", clients=SERVICE_CLIENTS, check_oracle=check_oracle,
            )
            counters = server.stats()["requests"]
        values.update(load_values(name, report))
        return counters

    uniform = build_request_plan(mix="uniform", requests=SERVICE_REQUESTS, seed=0)
    directory = tempfile.mkdtemp(prefix="repro-gate-service-")
    try:
        leg("cold", uniform, cache=directory)
        values["warm_cache_hits"] = leg("warm", uniform, cache=directory)["cache_hits"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    hot = build_request_plan(mix="hot", requests=SERVICE_REQUESTS, seed=0)
    skewed = leg("skewed", hot, check_oracle=True)
    values["skewed_coalesced"] = skewed["coalesced"]
    return values


@gate(
    *[
        (f"shards{shards}_{value}", "<=", 0)
        for shards in FLEET_SHARDS
        for value in (
            "cold_failures", "extra_compiles", "tier_failures", "tier_misses", "tier_recompiles"
        )
    ],
    ("cold_scaling", ">=", FLEET_MIN_SCALING),
)
def fleet():
    """Process fleets of each size: single compile, tier replay, scaling.

    The cold leg sends distinct programs and checks the fleet-wide
    single-compile invariant; the tier leg replays the same plan, which the
    router must answer entirely from the shared tier without compiling.
    """

    from repro.service.fleet import Fleet
    from repro.service.loadgen import build_request_plan, run_load

    plan = build_request_plan(mix="uniform", requests=FLEET_REQUESTS, seed=0)
    unique = len({json.dumps(message, sort_keys=True) for message in plan})

    def compiled(fleet):
        return sum(
            shard["stats"]["requests"]["compiled"]
            for shard in fleet.stats()["shards"]
            if isinstance(shard.get("stats"), dict)
        )

    values = {}
    for shards in FLEET_SHARDS:
        prefix = f"shards{shards}"
        with Fleet(shards=shards, backend="process") as fleet:
            cold = run_load(
                fleet.host, fleet.port, plan, mode="closed", clients=FLEET_CLIENTS,
                check_oracle=False, check_fleet=True,
            )
            cold_compiled = compiled(fleet)
            tier = run_load(
                fleet.host, fleet.port, plan, mode="closed", clients=FLEET_CLIENTS,
                check_oracle=False,
            )
            tier_compiled = compiled(fleet)
        values.update(load_values(f"{prefix}_cold", cold))
        values.update(load_values(f"{prefix}_tier", tier))
        values[f"{prefix}_extra_compiles"] = cold_compiled - unique
        values[f"{prefix}_tier_misses"] = len(plan) - tier.tier_hit_responses
        values[f"{prefix}_tier_recompiles"] = tier_compiled - cold_compiled

    base = values[f"shards{FLEET_SHARDS[0]}_cold_rps"]
    top = values[f"shards{FLEET_SHARDS[-1]}_cold_rps"]
    scaling = top / base if base else 0.0
    cores = os.cpu_count() or 1
    values["cold_scaling"] = scaling if cores > 1 else Skip(
        scaling, "one CPU core: CPU-bound compiles cannot scale with shards"
    )
    return values


@gate(
    ("observe_s", "<=", 1e-3),
    ("feed_s", "<=", 1e-3),
    ("sample_s", "<=", 5e-3),
    ("policy_step_s", "<=", 5e-3),
)
def health():
    """Per-call CPU cost of the telemetry plane on an injected clock.

    observe (per request) and feed (per tick) must stay under a millisecond,
    a full sample and a policy step under five; render and trace replay are
    recorded, not gated.
    """

    from repro.service.health import HealthMonitor, render_metrics_text
    from repro.service.policy import default_engine, replay_decisions

    clock = [0.0]
    counters = ("received", "completed", "errors", "rejected_overloaded")
    monitor = HealthMonitor(
        counters=counters, gauges=("queue_depth",), queue_limit=256,
        clock=lambda: clock[0],
    )
    # A realistic minute of traffic first, so every leg works on populated
    # windows, not empty ones.
    totals = dict.fromkeys(counters, 0)
    for step in range(600):
        clock[0] = step * 0.1
        totals["received"] += 7
        totals["completed"] += 6
        totals["errors"] += 1
        monitor.feed_counters(totals)
        monitor.observe_latency(1.0 + step % 40)
        monitor.observe_gauge("queue_depth", float(step % 23))

    calls = itertools.count(1)

    def observe():
        clock[0] += 0.001
        monitor.observe_latency(1.0 + next(calls) % 40)

    def feed():
        clock[0] += 0.001
        totals["received"] += 1
        totals["completed"] += 1
        monitor.feed_counters(totals)

    def sample():
        clock[0] += 0.001
        monitor.sample()

    engine = default_engine()

    def policy_step():
        clock[0] += 0.001
        engine.step(monitor.sample())

    snapshot = {
        "schema": "service-stats/v1",
        "uptime_seconds": 60.0,
        "draining": False,
        "requests": {name: float(totals[name]) for name in counters},
        "rates": {"qps": 70.0},
        "batches": {"dispatched": 500, "mean_size": 4.2, "max_size": 16},
        "queue": {"depth": 3, "peak_depth": 22},
        "latency_ms": {"count": 4200, "mean": 11.0, "p50": 8.0, "p99": 39.0},
        "policy": {"enabled": True, "shedding": False, "decisions": 2},
        "health": monitor.sample(),
    }

    def render():
        render_metrics_text(snapshot)

    trace = []
    for step in range(1000):
        clock[0] += 0.25
        monitor.observe_latency(1.0 + step % 40)
        trace.append(monitor.sample())

    values = {}
    for name, function, iterations in (
        ("observe", observe, HEALTH_ITERATIONS),
        ("feed", feed, HEALTH_ITERATIONS),
        ("sample", sample, HEALTH_ITERATIONS // 10),
        ("policy_step", policy_step, HEALTH_ITERATIONS // 10),
        ("render", render, HEALTH_ITERATIONS // 10),
    ):
        means = []
        for _ in range(HEALTH_SAMPLES):
            started = time.perf_counter()
            for _ in range(iterations):
                function()
            means.append((time.perf_counter() - started) / iterations)
        values[f"{name}_s"] = spread(means)

    started = time.perf_counter()
    values["replay_decisions"] = len(replay_decisions(trace))
    values["replay_samples_per_s"] = len(trace) / (time.perf_counter() - started)
    return values


@gate(("scaling_ratio", "<=", 2.0))
def hotpath():
    """Compile cost per instruction stays flat as procedures grow.

    Single-procedure compiles from ~100 to ~9k instructions (plus the
    largest seeded ``chaos_cfg`` flowgraph and the largest catalog pyfunc),
    timed in thread CPU time in interleaved rounds so a drift in host speed
    lands on every size alike.  ``scaling_ratio`` divides the median µs per
    instruction at ~9k instructions by the one at ~300.
    """

    from repro.pipeline.compiler import compile_procedure
    from repro.target.registry import get_target
    from repro.workloads.catalog import get_catalog
    from repro.workloads.generator import GeneratorConfig, generate_procedure
    from repro.workloads.scenarios import build_scenario

    machine = get_target("parisc")

    def largest(procedures):
        return max(procedures, key=lambda p: p.function.instruction_count())

    cases = {
        f"generator_{segments}": generate_procedure(
            GeneratorConfig(seed=1, num_segments=segments)
        )
        for segments in SCALING_SEGMENTS
    }
    cases["chaos_cfg"] = largest(build_scenario("chaos_cfg", seed=0, machine=machine))
    cases["pyfunc"] = largest(
        entry.build(seed=0) for entry in get_catalog().entries if entry.kind == "pyfunc"
    )

    samples = {name: [] for name in cases}
    for _ in range(SCALING_SAMPLES):
        for name, procedure in cases.items():
            started = time.thread_time()
            compile_procedure(procedure, machine=machine)
            instructions = procedure.function.instruction_count()
            samples[name].append((time.thread_time() - started) / instructions * 1e6)

    values = {f"{name}_us_per_instr": spread(times) for name, times in samples.items()}
    small = values[f"generator_{SCALING_SEGMENTS[1]}_us_per_instr"]["median"]
    large = values[f"generator_{SCALING_SEGMENTS[-1]}_us_per_instr"]["median"]
    values["scaling_ratio"] = large / small
    return values


@gate(("lint_problems", "<=", 0), ("semantics_violations", "<=", 0))
def frontend():
    """The corpus translates, the catalog lints clean, pyfuncs compile right.

    Every corpus function is translated (a failure raises); every catalog
    pyfunc is compiled with every technique and verification on, and each
    placed program is run against CPython on seeded inputs.  An equal number
    of scenario procedures is compiled alongside for a cost comparison.
    """

    from repro.frontend import translate_function
    from repro.ir.module import Module
    from repro.pipeline.compiler import TECHNIQUES, compile_procedure
    from repro.profiling.interpreter import Interpreter
    from repro.spill.insertion import apply_placement
    from repro.target.registry import DEFAULT_TARGET, get_target
    from repro.workloads.catalog import (
        catalog_directory,
        corpus_functions,
        corpus_module,
        load_catalog,
    )
    from repro.workloads.catalog.pyfuncs import CORPUS_MODULES
    from repro.workloads.scenarios import build_scenario

    values = {}
    started = time.perf_counter()
    functions = [
        function
        for module in CORPUS_MODULES
        for function in corpus_functions(module.__name__.rsplit(".", 1)[-1]).values()
    ]
    for function in functions:
        translate_function(function)
    values["translated_functions"] = len(functions)
    values["translate_s"] = spread([time.perf_counter() - started])

    catalog = load_catalog(catalog_directory())
    values["lint_problems"] = len(catalog.lint())

    machine = get_target(DEFAULT_TARGET)
    violations = 0
    pyfuncs = catalog.names("pyfunc")
    started = time.perf_counter()
    for name in pyfuncs:
        entry = catalog.resolve(name)
        compiled = compile_procedure(
            entry.build(0, 0, machine), machine=machine, techniques=TECHNIQUES, verify=True
        )
        python_function = corpus_functions(entry.module)[entry.func]
        siblings = corpus_module(entry.module).functions.values()
        for technique in TECHNIQUES:
            final = compiled.allocation.function.clone()
            apply_placement(final, compiled.outcomes[technique].placement)
            module = Module(f"gate.{entry.name}")
            module.add_function(final)
            for translated in siblings:
                if translated.ir_name != final.name:
                    module.add_function(translated.function.clone())
            interpreter = Interpreter(module=module, machine=machine)
            rng = random.Random(f"bench-frontend/{entry.name}/0")
            for _ in range(FRONTEND_TRIALS):
                args = entry.draw_inputs(rng)
                expected = (int(python_function(*args)),)
                got = interpreter.run(final, args).return_values
                if got != expected:
                    violations += 1
                    print(f"VIOLATION: {entry.name} via {technique} on {args!r}: "
                          f"{got!r} != {expected!r}", file=sys.stderr)
    values["semantics_violations"] = violations
    values["pyfunc_compile_s"] = spread([time.perf_counter() - started])

    # A same-sized synthetic sample: scenario procedures round-robin.
    families = [catalog.resolve(name).family for name in catalog.names("scenario")]
    synthetic = []
    for cursor in range(len(pyfuncs)):
        index = cursor // len(families)
        family = families[cursor % len(families)]
        synthetic.append(build_scenario(family, seed=0, count=index + 1, machine=machine)[index])
    started = time.perf_counter()
    for procedure in synthetic:
        compile_procedure(procedure, machine=machine, techniques=TECHNIQUES, verify=True)
    values["synthetic_compile_s"] = spread([time.perf_counter() - started])
    return values


# -- running ---------------------------------------------------------------------


def run_gate(name):
    """Run one gate; an exception fails the gate and is reported."""

    function, checks = GATES[name]
    started = time.perf_counter()
    try:
        values = function()
    except Exception:
        traceback.print_exc()
        error = traceback.format_exc().strip().splitlines()[-1]
        return {"ok": False, "seconds": time.perf_counter() - started, "error": error}
    results = evaluate(checks, values)
    checked = {name for name, _op, _bound in checks}
    return {
        "ok": all(result["verdict"] != "fail" for result in results),
        "seconds": time.perf_counter() - started,
        "checks": results,
        "values": {key: value for key, value in values.items() if key not in checked},
    }


def describe(value):
    if isinstance(value, dict):
        return f"{value['median']:.4g} (IQR {value['iqr']:.2g}, n={value['n']})"
    return f"{value:.4g}"


def run(names, output):
    host = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    gates = {}
    for name in names:
        print(f"{name}: running ...", file=sys.stderr)
        gates[name] = result = run_gate(name)
        for check in result.get("checks", ()):
            note = f"  ({check['reason']})" if "reason" in check else ""
            print(f"  {name}.{check['name']} = {describe(check['value'])} "
                  f"{check['op']} {check['bound']:g}: {check['verdict']}{note}", file=sys.stderr)
        if "error" in result:
            print(f"  {name}: error: {result['error']}", file=sys.stderr)
    payload = {
        "schema": SCHEMA,
        "host": host,
        "ok": all(result["ok"] for result in gates.values()),
        "gates": gates,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if payload["ok"] else 1


def self_test():
    """Every check passes at its bound and fails just past it."""

    wrong = 0
    for name, (_function, checks) in GATES.items():
        for check in checks:
            value_name, op, bound = check
            if isinstance(bound, int):
                past = bound + 1 if op == "<=" else bound - 1
            else:
                past = math.nextafter(bound, math.inf if op == "<=" else -math.inf)
            expected = (
                [(bound, "pass"), (past, "fail")]
                + [(spread([bound] * 3), "pass"), (spread([bound, past, past]), "fail")]
                + [(Skip(past, "planted"), "skipped")]
            )
            verdicts = [
                evaluate([check], {value_name: planted})[0]["verdict"]
                for planted, _verdict in expected
            ]
            ok = verdicts == [verdict for _planted, verdict in expected]
            wrong += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}.{value_name} {op} {bound:g}: "
                  f"{verdicts[0]} at the bound, {verdicts[1]} at {past!r}")
    print(f"self-test: {sum(len(checks) for _f, checks in GATES.values())} checks "
          f"in {len(GATES)} gates, {wrong} wrong")
    return 1 if wrong else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gates", nargs="*", metavar="GATE",
                        help=f"gates to run (default: all of {', '.join(GATES)})")
    parser.add_argument("--output", help="write the gates/v1 JSON here (default: stdout)")
    parser.add_argument("--self-test", action="store_true",
                        help="check every gate's verdicts on planted values, run nothing")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.gates) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s): {', '.join(unknown)}")
    if args.self_test:
        return self_test()
    return run(args.gates or list(GATES), args.output)


if __name__ == "__main__":
    raise SystemExit(main())
