"""Seed-deterministic load generation for the compile service.

The load generator turns the PR-4 scenario registry into request traffic:
a **plan** (the exact sequence of compile messages, a pure function of the
seed and the mix options) plus a **driver** that replays the plan against a
server in open- or closed-loop mode and verifies invariants on every
response.

Request mixes
-------------

``uniform``
    every request is a distinct program: scenario families round-robin,
    the index advancing each cycle — the cold-cache, no-duplicate
    workload;
``hot``
    requests drawn zipf-skewed from a small pool of programs (the
    "everyone compiles the same hot function" shape) — exercises both the
    cache front (across batches) and in-flight coalescing (within one);
``mixed``
    a seeded interleaving of the two, duplicates included — the CI smoke
    traffic;
``catalog``
    requests round-robin over the workload catalog with the pyfunc
    (frontend-translated) entries first, so translated real functions and
    synthetic scenarios share one traffic stream — the duplicate burst
    lands on a translated function, exercising coalescing on pyfunc cache
    keys.

The ``hot`` and ``mixed`` plans open with a short **duplicate burst**
(:data:`WARMUP_BURST` copies of the hottest program at positions 0..2):
with at least two concurrent clients and a cold server these are in flight
together before anything is cached, so every cold run deterministically
exercises the coalescing path — not just when the zipf draw happens to
cluster.

Driver modes
------------

``closed``
    ``clients`` concurrent connections, each submitting its next request
    as soon as the previous one is answered (throughput-bounded by the
    server);
``open``
    requests fired at a fixed arrival ``rate`` regardless of completions
    (connections are pipelined; admission control is what protects the
    server when the rate exceeds capacity).

Invariants checked on every run
-------------------------------

* zero protocol errors (every response parses and matches a request id);
* duplicate-request consistency: equal request signatures receive
  byte-identical ``result`` payloads, coalesced/cached or not;
* with ``check_oracle=True``, every ``result`` is byte-identical to a
  local :func:`~repro.pipeline.compiler.compile_procedure` of the same
  request — the end-to-end serving-correctness invariant.

Every RNG is string-seeded (``random.Random(f"loadgen/...")``), matching
the scenario registry's determinism contract: the same options always
produce the same plan, on every host.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import random

from repro.service.endpoint import PipelinedConnection
from repro.service.metrics import LatencyHistogram
from repro.service.protocol import (
    parse_compile_request,
    resolve_compile_request,
    response_result_bytes,
    result_payload,
)
from repro.workloads.catalog import get_catalog
from repro.workloads.scenarios import scenario_names

#: Mix names understood by :func:`build_request_plan`.
MIXES = ("uniform", "hot", "mixed", "catalog")

#: Driver modes understood by :func:`run_load`.
MODES = ("closed", "open")

#: Distinct programs in the zipf pool of the ``hot``/``mixed`` mixes.
DEFAULT_POOL_SIZE = 6

#: Zipf skew exponent: rank ``r`` is drawn with weight ``1/(r+1)**s``.
DEFAULT_ZIPF_EXPONENT = 1.2

#: Leading duplicates of the hottest program in ``hot``/``mixed`` plans —
#: guarantees concurrent identical in-flight requests on a cold server.
WARMUP_BURST = 3


def _scenario_reference(family: str, seed: int, index: int) -> Dict[str, Any]:
    return {"scenario": f"scenario:{family}:{seed}:{index}"}


def build_request_plan(
    mix: str = "mixed",
    requests: int = 50,
    seed: int = 0,
    targets: Sequence[str] = ("parisc",),
    cost_model: str = "jump_edge",
    pool_size: int = DEFAULT_POOL_SIZE,
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT,
    bypass_fraction: float = 0.0,
) -> List[Dict[str, Any]]:
    """Build the deterministic request plan: a list of compile messages.

    The plan is a pure function of the arguments (string-seeded RNGs, no
    global state): the same call always yields the same messages with the
    same ids (``q0``, ``q1``, ...), so a run can be replayed — and a found
    interleaving pinned as a regression fixture — by seed alone.
    """

    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; expected one of {MIXES}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests!r}")
    if not targets:
        raise ValueError("targets must not be empty")
    families = scenario_names()
    rng = random.Random(f"loadgen/{mix}/{seed}/{requests}")

    # The zipf pool: ``pool_size`` distinct programs, families round-robin.
    pool = [
        (families[rank % len(families)], seed, rank // len(families))
        for rank in range(pool_size)
    ]
    weights = [1.0 / (rank + 1) ** zipf_exponent for rank in range(pool_size)]

    def fresh(position: int) -> Tuple[str, int, int]:
        """The ``position``-th distinct uniform program (never in the pool)."""

        family = families[position % len(families)]
        # Offset past the pool's index range so uniform draws stay distinct
        # from hot-pool programs even within the same family.
        return family, seed, pool_size + position // len(families)

    catalog_entries: Tuple[str, ...] = ()
    if mix == "catalog":
        catalog = get_catalog()
        catalog_entries = catalog.names("pyfunc") + catalog.names("scenario")

    plan: List[Dict[str, Any]] = []
    uniform_cursor = 0
    catalog_cursor = 0
    for position in range(requests):
        if mix == "catalog":
            if position < min(WARMUP_BURST, requests - 1):
                name, cycle = catalog_entries[0], 0
            else:
                name = catalog_entries[catalog_cursor % len(catalog_entries)]
                cycle = catalog_cursor // len(catalog_entries)
                catalog_cursor += 1
            cache = "bypass" if rng.random() < bypass_fraction else "use"
            plan.append({
                "type": "compile",
                "id": f"q{position}",
                "program": {"catalog": f"catalog:{name}:{seed}:{cycle}"},
                "target": targets[position % len(targets)],
                "cost_model": cost_model,
                "cache": cache,
            })
            continue
        if mix != "uniform" and position < min(WARMUP_BURST, requests - 1):
            # The deterministic duplicate burst (see module docstring).
            family, fam_seed, index = pool[0]
        elif mix == "uniform":
            family, fam_seed, index = fresh(uniform_cursor)
            uniform_cursor += 1
        elif mix == "hot":
            family, fam_seed, index = rng.choices(pool, weights=weights, k=1)[0]
        else:  # mixed
            if rng.random() < 0.5:
                family, fam_seed, index = rng.choices(pool, weights=weights, k=1)[0]
            else:
                family, fam_seed, index = fresh(uniform_cursor)
                uniform_cursor += 1
        cache = "bypass" if rng.random() < bypass_fraction else "use"
        message = {
            "type": "compile",
            "id": f"q{position}",
            "program": _scenario_reference(family, fam_seed, index),
            "target": targets[position % len(targets)],
            "cost_model": cost_model,
            "cache": cache,
        }
        plan.append(message)
    return plan


def plan_signature(message: Mapping[str, Any]) -> str:
    """The canonical work-identity of one plan message (id excluded).

    Validates the message on the way — a malformed plan entry fails here,
    not against the server.
    """

    return parse_compile_request(message).signature()


def oracle_results(plan: Sequence[Mapping[str, Any]]) -> Dict[str, bytes]:
    """Locally compiled ground truth: signature -> canonical result bytes.

    One :func:`~repro.pipeline.compiler.compile_procedure` per *unique*
    request signature — what every served response must match
    byte-for-byte.
    """

    from repro.pipeline.compiler import compile_procedure

    truth: Dict[str, bytes] = {}
    for message in plan:
        request = parse_compile_request(message)
        signature = request.signature()
        if signature in truth:
            continue
        resolved = resolve_compile_request(request)
        compiled = compile_procedure(
            (resolved.function, resolved.profile),
            machine=request.target,
            cost_model=request.cost_model,
            techniques=list(request.techniques),
            verify=True,
        )
        truth[signature] = json.dumps(
            result_payload(resolved, compiled), sort_keys=True
        ).encode("utf-8")
    return truth


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------


@dataclass
class LoadReport:
    """Everything one load run measured and verified."""

    mode: str
    requests_planned: int
    completed: int = 0
    retries: int = 0
    #: Terminal error responses by code (after the retry loop gave up).
    errors: Dict[str, int] = field(default_factory=dict)
    protocol_errors: int = 0
    transport_errors: int = 0
    #: Responses whose ``result`` bytes disagreed with a duplicate or with
    #: the local oracle — each entry names the offending request.
    invariant_violations: List[str] = field(default_factory=list)
    coalesced_responses: int = 0
    cache_hit_responses: int = 0
    #: Responses answered from a fleet's shared cache tier by the router.
    tier_hit_responses: int = 0
    wall_seconds: float = 0.0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Stats snapshots sampled during the run when metric recording was on
    #: (``record_metrics``); written out as a ``metrics-trace/v1`` file.
    metric_samples: int = 0
    #: The server's metrics snapshot fetched after the run.  When the
    #: server was already draining (or gone) by fetch time this holds a
    #: partial marker — ``{"schema": "service-stats/partial", "partial":
    #: True, "draining": True}`` — rather than None or a stall.
    server_stats: Optional[Dict[str, Any]] = None

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""

        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def error_count(self) -> int:
        """Total terminal error responses."""

        return sum(self.errors.values())

    @property
    def ok(self) -> bool:
        """Did the run finish with zero errors and zero violated invariants?"""

        return (
            self.completed == self.requests_planned
            and not self.error_count
            and not self.protocol_errors
            and not self.transport_errors
            and not self.invariant_violations
        )

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable summary (the benchmark harness's raw material)."""

        return {
            "mode": self.mode,
            "requests_planned": self.requests_planned,
            "completed": self.completed,
            "retries": self.retries,
            "errors": dict(self.errors),
            "protocol_errors": self.protocol_errors,
            "transport_errors": self.transport_errors,
            "invariant_violations": len(self.invariant_violations),
            "coalesced_responses": self.coalesced_responses,
            "cache_hit_responses": self.cache_hit_responses,
            "tier_hit_responses": self.tier_hit_responses,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_ms": self.latency.summary(),
            "metric_samples": self.metric_samples,
        }


class _Checker:
    """Response verification shared by both driver modes."""

    def __init__(
        self,
        report: LoadReport,
        signatures: Dict[str, str],
        oracle: Optional[Dict[str, bytes]],
    ):
        self.report = report
        self.signatures = signatures
        self.oracle = oracle
        self._seen: Dict[str, bytes] = {}

    def verify(self, request_id: str, response: Mapping[str, Any]) -> None:
        """Check one result response against duplicates and the oracle."""

        if response.get("type") != "result" or "result" not in response:
            self.report.protocol_errors += 1
            return
        self.report.completed += 1
        service = response.get("service", {})
        if service.get("coalesced"):
            self.report.coalesced_responses += 1
        if service.get("cache") == "hit":
            self.report.cache_hit_responses += 1
        elif service.get("cache") == "tier":
            self.report.tier_hit_responses += 1
        signature = self.signatures[request_id]
        body = response_result_bytes(response)
        previous = self._seen.setdefault(signature, body)
        if previous != body:
            self.report.invariant_violations.append(
                f"{request_id}: result differs from an identical earlier request"
            )
        if self.oracle is not None and self.oracle[signature] != body:
            self.report.invariant_violations.append(
                f"{request_id}: result differs from the local compile_procedure oracle"
            )


async def _drive(
    host: str,
    port: int,
    plan: Sequence[Mapping[str, Any]],
    mode: str,
    clients: int,
    rate: float,
    timeout: float,
    retries: int,
    backoff: float,
    checker: _Checker,
    report: LoadReport,
    metric_trace: Optional[List[Dict[str, Any]]] = None,
    metrics_interval: float = 0.25,
) -> None:
    """Replay the plan against the server in the requested mode."""

    connections = [
        await PipelinedConnection.open(host, port, timeout, label="server")
        for _ in range(clients)
    ]
    loop = asyncio.get_running_loop()

    sampler_task: Optional[asyncio.Task] = None
    sampler: Optional[PipelinedConnection] = None
    if metric_trace is not None:
        # The sampler rides its own connection so stats polling never
        # contends with load traffic for a pipelined writer.
        sampler = await PipelinedConnection.open(host, port, timeout, label="server")

        async def sample_loop(connection: PipelinedConnection) -> None:
            sequence = 0
            while True:
                try:
                    response = await asyncio.wait_for(
                        connection.request({"type": "stats", "id": f"mrec{sequence}"}),
                        timeout,
                    )
                except (ConnectionError, asyncio.TimeoutError):
                    return
                sequence += 1
                if response.get("type") == "stats" and isinstance(
                    response.get("stats"), dict
                ):
                    metric_trace.append(response["stats"])
                await asyncio.sleep(metrics_interval)

        sampler_task = asyncio.ensure_future(sample_loop(sampler))

    async def submit(connection: PipelinedConnection, message: Mapping[str, Any]) -> None:
        started = loop.time()
        try:
            response = await asyncio.wait_for(connection.request(message), timeout)
            attempt = 0
            while (
                response.get("type") == "error"
                and response.get("code") == "overloaded"
                and attempt < retries
            ):
                report.retries += 1
                await asyncio.sleep(backoff * (2**attempt))
                attempt += 1
                response = await asyncio.wait_for(connection.request(message), timeout)
        except (ConnectionError, asyncio.TimeoutError):
            report.transport_errors += 1
            return
        report.latency.record((loop.time() - started) * 1000.0)
        if response.get("type") == "error":
            code = str(response.get("code", "internal"))
            report.errors[code] = report.errors.get(code, 0) + 1
            return
        checker.verify(message["id"], response)

    try:
        if mode == "closed":
            cursor = 0

            async def worker(connection: PipelinedConnection) -> None:
                nonlocal cursor
                while cursor < len(plan):
                    message = plan[cursor]
                    cursor += 1
                    await submit(connection, message)

            await asyncio.gather(*(worker(connection) for connection in connections))
        else:  # open loop
            start = loop.time()

            async def fire(position: int, message: Mapping[str, Any]) -> None:
                delay = start + position / rate - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                await submit(connections[position % len(connections)], message)

            await asyncio.gather(
                *(fire(position, message) for position, message in enumerate(plan))
            )
    finally:
        if sampler_task is not None:
            sampler_task.cancel()
            try:
                await sampler_task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
        if sampler is not None:
            sampler.close("client closed")
        for connection in connections:
            report.protocol_errors += connection.stray_frames
        # Fetch the server's own view before closing (stats ride the load
        # connections, so no extra connection skews the counters).
        report.server_stats = await _fetch_final_stats(connections, timeout)
        for connection in connections:
            connection.close("client closed")


#: The end-of-run stats payload when the server was already draining (or
#: gone) by fetch time — an explicit partial marker, never a stall or a
#: spurious run failure: telemetry racing a shutdown is expected.
PARTIAL_STATS = {
    "schema": "service-stats/partial",
    "partial": True,
    "draining": True,
}


async def _fetch_final_stats(
    connections: Sequence[PipelinedConnection], timeout: float
) -> Dict[str, Any]:
    """The server's end-of-run stats, racing a possible drain gracefully.

    A server that received a ``shutdown`` mid-run (a killed fleet shard,
    an operator SIGTERM) may close our connections before — or while —
    the stats request is answered.  Each connection is tried in turn with
    a short per-attempt bound; when none can answer, the report gets the
    explicit :data:`PARTIAL_STATS` marker with ``draining: True`` instead
    of a timeout error, so the run's verdict never depends on telemetry
    that legitimately raced a shutdown.
    """

    per_attempt = min(timeout, 10.0) / max(1, len(connections))
    per_attempt = max(per_attempt, 1.0)
    for connection in connections:
        try:
            response = await asyncio.wait_for(
                connection.request({"type": "stats", "id": "loadgen-stats"}),
                per_attempt,
            )
        except Exception:
            continue
        if response.get("type") == "stats" and isinstance(
            response.get("stats"), dict
        ):
            return response["stats"]
    return dict(PARTIAL_STATS)


def fleet_invariant_violations(
    stats: Optional[Mapping[str, Any]], plan: Sequence[Mapping[str, Any]]
) -> List[str]:
    """Check the fleet-wide single-compile invariant against a snapshot.

    Given a fresh fleet's ``fleet-stats/v1`` snapshot after a run, the
    total number of compiles across every shard must not exceed the number
    of unique request signatures in the plan: the router's coalescing plus
    its fill-before-relay of the shared tier guarantee that no coalesced
    key is ever compiled twice fleet-wide.  Returns violation strings
    (empty = held).

    The check only applies when it is sound: a fleet snapshot with all
    shard stats present and no deaths/wedges (a killed shard legitimately
    forces recompiles of its in-flight keys, and its counters are lost).
    """

    if not isinstance(stats, Mapping) or stats.get("schema") != "fleet-stats/v1":
        return []
    router = stats.get("router", {})
    if router.get("shard_deaths") or router.get("wedged"):
        return []
    shards = stats.get("shards", [])
    per_shard = []
    for shard in shards:
        shard_stats = shard.get("stats")
        if not isinstance(shard_stats, Mapping):
            return []  # partial snapshot: cannot account every compile
        per_shard.append(
            (shard.get("id"), shard_stats.get("requests", {}).get("compiled", 0))
        )
    unique = len({plan_signature(message) for message in plan})
    compiled = sum(count for _shard_id, count in per_shard)
    if compiled > unique:
        detail = ", ".join(f"{shard_id}={count}" for shard_id, count in per_shard)
        return [
            f"fleet-wide double-compile: {compiled} compiles for {unique} "
            f"unique request keys ({detail})"
        ]
    return []


def run_load(
    host: str,
    port: int,
    plan: Sequence[Mapping[str, Any]],
    mode: str = "closed",
    clients: int = 4,
    rate: float = 100.0,
    timeout: float = 120.0,
    retries: int = 6,
    backoff: float = 0.05,
    check_oracle: bool = False,
    check_fleet: bool = False,
    record_metrics: Optional[str] = None,
    metrics_interval: float = 0.25,
) -> LoadReport:
    """Replay a request plan against a running server and verify it.

    ``mode="closed"`` keeps ``clients`` connections saturated; ``"open"``
    fires requests at ``rate`` per second across pipelined connections.
    With ``check_oracle=True`` every response is additionally compared
    byte-for-byte against a local compile of the same request (computed
    once per unique request before the load starts, so oracle time never
    pollutes the measured window).  With ``check_fleet=True`` (a freshly
    started fleet only — shard counters must belong to this run) the
    end-of-run fleet snapshot is checked for fleet-wide double-compiles
    (:func:`fleet_invariant_violations`).  With ``record_metrics=PATH``
    a sampler connection polls ``stats`` every ``metrics_interval``
    seconds during the run and writes the snapshots to ``PATH`` as a
    ``metrics-trace/v1`` JSONL file — the raw material for replaying the
    run through the policy engine (``repro-spill policy replay``).
    """

    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients!r}")
    if mode == "open" and rate <= 0:
        raise ValueError(f"open-loop rate must be > 0, got {rate!r}")
    if metrics_interval <= 0:
        raise ValueError(f"metrics_interval must be > 0, got {metrics_interval!r}")

    signatures = {message["id"]: plan_signature(message) for message in plan}
    oracle = oracle_results(plan) if check_oracle else None
    report = LoadReport(mode=mode, requests_planned=len(plan))
    checker = _Checker(report, signatures, oracle)
    metric_trace: Optional[List[Dict[str, Any]]] = (
        [] if record_metrics is not None else None
    )

    started = time.perf_counter()
    asyncio.run(
        _drive(
            host,
            port,
            plan,
            mode,
            clients,
            rate,
            timeout,
            retries,
            backoff,
            checker,
            report,
            metric_trace=metric_trace,
            metrics_interval=metrics_interval,
        )
    )
    report.wall_seconds = time.perf_counter() - started
    if check_fleet:
        report.invariant_violations.extend(
            fleet_invariant_violations(report.server_stats, plan)
        )
    if record_metrics is not None and metric_trace is not None:
        from repro.service.health import write_metric_trace

        report.metric_samples = write_metric_trace(record_metrics, metric_trace)
    return report


def render_load_report(report: LoadReport) -> str:
    """Human-readable summary of one load run."""

    lines = [
        f"loadgen: {report.completed}/{report.requests_planned} completed "
        f"({report.mode} loop), {report.wall_seconds:.3f}s wall, "
        f"{report.throughput_rps:.1f} req/s",
        f"  latency ms      : p50={report.latency.quantile(50):.2f} "
        f"p95={report.latency.quantile(95):.2f} "
        f"p99={report.latency.quantile(99):.2f} "
        f"max={report.latency.maximum or 0.0:.2f}",
        f"  coalesced       : {report.coalesced_responses}",
        f"  cache hits      : {report.cache_hit_responses}"
        + (
            f" (tier {report.tier_hit_responses})"
            if report.tier_hit_responses
            else ""
        ),
        f"  retries         : {report.retries}",
        f"  errors          : "
        + (
            ", ".join(f"{code}={count}" for code, count in sorted(report.errors.items()))
            or "none"
        ),
        f"  protocol errors : {report.protocol_errors}",
        f"  transport errors: {report.transport_errors}",
        f"  invariants      : "
        + (
            f"{len(report.invariant_violations)} VIOLATED"
            if report.invariant_violations
            else "all held"
        ),
    ]
    for violation in report.invariant_violations[:10]:
        lines.append(f"    ! {violation}")
    stats = report.server_stats
    if stats is not None and stats.get("schema") == "fleet-stats/v1":
        router = stats.get("router", {})
        lines.append(
            "  fleet           : "
            f"completed={router.get('completed')} "
            f"tier_hits={router.get('tier_hits')} "
            f"coalesced={router.get('coalesced')} "
            f"rerouted={router.get('rerouted')} "
            f"shard_deaths={router.get('shard_deaths')} "
            f"wedged={router.get('wedged')} "
            f"shards={len(stats.get('shards', []))}"
        )
    elif stats is not None and stats.get("partial"):
        lines.append("  server          : stats partial (server was draining)")
    elif stats is not None:
        requests = stats.get("requests", {})
        lines.append(
            "  server          : "
            f"completed={requests.get('completed')} "
            f"coalesced={requests.get('coalesced')} "
            f"cache_hits={requests.get('cache_hits')} "
            f"compiled={requests.get('compiled')} "
            f"overloaded={requests.get('rejected_overloaded')}"
        )
    return "\n".join(lines)
