"""The ``service_mixed`` workload: a compile server under a mixed read/write load.

The server is its own child process (``repro-spill serve --workers 1``), so it
does not share the client's interpreter lock, and ``--workers 1`` keeps it
from starting a process pool that would compete with the client for the two
cores.  Set-up spawns it with a fresh cache directory and pre-warms a
zipf-hot pool of programs.

Phase one is an open loop at a fixed rate over two connections, in
segments.  Three requests in four are reads of the hot pool (cache hits);
one in four is a never-seen ``scenario:`` or ``catalog:`` program (pyfuncs
included), which takes a miss, a batch, a compile and a cache write.  With
that fixed share, p50 lies well inside the hits and p95 well inside the
misses.  Phase two is a closed loop: chunks of requests with the same mix,
pipelined over the same two connections.  The calibration kernel is timed
in a pause between any two segments or chunks, while the server is idle.

Every program the run sends comes from the pool recorded in
``expected.json``, so each answer is checked against a recorded digest.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    CPU_CLOCK,
    ROOT,
    WORK_DIR,
    Tracer,
    at_reference_speed,
    geometric_mean,
    median,
    note,
    percentile,
    time_kernel,
    timed_setups,
)
from perfbench import oracle
from perfbench.openloop import (
    Outcome,
    Request,
    closed_loop,
    correct_frac,
    due_time_latencies,
    open_loop,
    per_batch_compile_ms,
    uncached_pass_seconds,
    within_slo_frac,
)

TARGET = "parisc"
COST_MODEL = "jump_edge"

#: Share of requests that are never-seen programs (cache misses).
MISS_SHARE = 0.25

#: Open-loop arrival rate, the share of the run it occupies, and the number
#: of segments it is split into (with a calibration pause between two).
OPEN_RATE_RPS = 40.0
OPEN_FRACTION = 0.6
OPEN_SEGMENTS = 12

#: Closed-loop requests per second of run length, split into this many
#: chunks (``throughput_rps`` is the median chunk throughput), each pipelined
#: with at most this many requests in flight per connection.
CLOSED_PER_SECOND = 80
CLOSED_CHUNKS = 10
PIPELINE_DEPTH = 4

CONNECTIONS = 2

#: A request meets the latency limit when answered correctly within this.
SLO_MS = 100.0

#: The open-loop run is invalid when the generator's lateness p95 exceeds
#: this share of the latency limit.
MAX_LATENESS_SHARE = 0.1

#: Zipf exponent of reads over the hot pool.
ZIPF_S = 1.1

#: Set-ups per run (fresh interpreter, server spawn, pre-warm).
SETUP_REPEATS = 5

#: Calibration kernel timings taken at each pause between two load
#: segments, while the server is idle.  A segment's timings are normalised
#: by the median of the pauses before and after it: the host's speed can
#: change within a run, and the kernel then tracks it segment by segment.
KERNELS_PER_PAUSE = 5

#: The in-process check compiles the served programs serially; the kernel
#: is timed once per this many compiles.
CHECK_BLOCK = 10

#: Programs the traced run replays in-process through each layer.
TRACE_MIRROR_PROGRAMS = 120


# ---------------------------------------------------------------------------
# Programs and request schedules.
# ---------------------------------------------------------------------------


def candidate_refs() -> Tuple[List[str], List[str]]:
    """Hot-pool and miss-pool program references, before de-duplication.

    ``record_expected.py`` resolves these, drops any that compile to the
    same cache key as an earlier one, and stores the survivors.
    """

    from repro.workloads.catalog import get_catalog
    from repro.workloads.scenarios import scenario_names

    families = scenario_names()
    catalog = get_catalog()
    pyfuncs = catalog.names("pyfunc")
    scenario_codes = catalog.names("scenario")
    hot = [f"scenario:{families[i % len(families)]}:{100 + i}:0" for i in range(20)]
    # One pyfunc from each corpus module, so pre-warming translates both.
    modules = {}
    for name in pyfuncs:
        modules.setdefault(catalog.resolve(name).module, name)
    hot += [f"catalog:{name}:100:0" for name in sorted(modules.values())]
    hot += [f"catalog:{scenario_codes[0]}:100:0", f"catalog:{scenario_codes[1]}:100:0"]
    misses = []
    for i in range(1000):
        if i % 4 == 3:
            k = i // 4
            codes = pyfuncs if k % 2 == 0 else scenario_codes
            misses.append(f"catalog:{codes[(k // 2) % len(codes)]}:{2000 + k}:0")
        else:
            misses.append(f"scenario:{families[i % len(families)]}:{1000 + i}:0")
    return hot, misses


def request_message(ref: str, request_id: str) -> Dict:
    kind = ref.split(":", 1)[0]
    return {
        "type": "compile",
        "id": request_id,
        "program": {kind: ref},
        "target": TARGET,
        "cost_model": COST_MODEL,
        "techniques": list(oracle.TECHNIQUES),
        "cache": "use",
    }


def encode(message: Dict) -> bytes:
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


@dataclass
class Plan:
    """Everything a run sends, derived from the seed and the run length."""

    hot: List[str]
    open_segments: List[List[Request]]
    closed_chunks: List[List[Request]]
    miss_refs: List[str]


def zipf_counts(reads: int, programs: int) -> List[int]:
    """Reads of each hot program among ``reads``: zipf shares, largest remainder rounding."""

    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(programs)]
    exact = [reads * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(programs), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: reads - sum(counts)]:
        counts[i] += 1
    return counts


def build_plan(pool: Dict, seed: int, seconds: float) -> Plan:
    """The run's requests: exact hit/miss counts, seeded order and choices."""

    rng = random.Random(f"perfbench/service_mixed/{seed}")
    hot = [entry["ref"] for entry in pool["hot"]]
    per_segment = int(round(OPEN_RATE_RPS * OPEN_FRACTION * seconds / OPEN_SEGMENTS))
    per_chunk = int(round(CLOSED_PER_SECOND * seconds / CLOSED_CHUNKS))
    segment_misses = int(round(per_segment * MISS_SHARE))
    chunk_misses = int(round(per_chunk * MISS_SHARE))
    open_misses = segment_misses * OPEN_SEGMENTS
    closed_misses = chunk_misses * CLOSED_CHUNKS
    available = [entry["ref"] for entry in pool["misses"]]
    if open_misses + closed_misses > len(available):
        raise ValueError(
            f"run needs {open_misses + closed_misses} distinct programs; the "
            f"recorded pool has {len(available)} (shorten --seconds)"
        )
    miss_refs = available[: open_misses + closed_misses]

    def slots(count: int, pool_refs: List[str]) -> List[str]:
        """``count`` requests: ``pool_refs`` once each, zipf reads of the hot pool for the rest."""

        refs = list(pool_refs)
        for ref, reads in zip(hot, zipf_counts(count - len(pool_refs), len(hot))):
            refs.extend([ref] * reads)
        rng.shuffle(refs)
        return refs

    # Each open-loop segment and each closed-loop chunk holds the same
    # requests under every seed: the same slice of the miss pool and the
    # same number of reads of each hot program.  Hot programs differ in
    # what a hit costs (resolving a reference generates its program), so a
    # seed that made a different program hottest would move p50.  The seed
    # only sets the order.
    def segment(prefix: str, index: int, count: int, first_miss: int, misses: int,
                rate: Optional[float]) -> List[Request]:
        refs = slots(count, miss_refs[first_miss:first_miss + misses])
        return [
            Request(f"{prefix}{index * count + i}", ref,
                    encode(request_message(ref, f"{prefix}{index * count + i}")),
                    i / rate if rate else 0.0)
            for i, ref in enumerate(refs)
        ]

    open_segments = [
        segment("o", k, per_segment, k * segment_misses, segment_misses, OPEN_RATE_RPS)
        for k in range(OPEN_SEGMENTS)
    ]
    chunks = [
        segment("c", c, per_chunk, open_misses + c * chunk_misses, chunk_misses, None)
        for c in range(CLOSED_CHUNKS)
    ]
    return Plan(hot, open_segments, chunks, miss_refs)


def build_inputs(seed: int, seconds: float) -> Plan:
    """What a fresh interpreter builds at set-up: the pool and the plan."""

    import repro.service.protocol  # noqa: F401 - the program the plan is for

    return build_plan(oracle.load_expected()["service_mixed"], seed, seconds)


# ---------------------------------------------------------------------------
# The server child.
# ---------------------------------------------------------------------------


class Server:
    """A ``repro-spill serve --workers 1`` child process with its own cache."""

    def __init__(self, cache_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1", "--port", "0",
             "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=str(ROOT), env=env,
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, port = line.rsplit(" ", 1)[-1].strip().rsplit(":", 1)
        self.port = int(port)
        self.peak_rss_mb: Optional[float] = None

    def cpu_seconds(self) -> float:
        """CPU seconds the running child has used so far (0.0 where ``/proc`` is missing)."""

        try:
            with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), reap, and record the child's peak RSS."""

        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


async def _connect(server: Server):
    reader, writer = await asyncio.open_connection(server.host, server.port, limit=1 << 24)
    writer.write(encode({"type": "hello", "protocol": 1}))
    await writer.drain()
    reply = json.loads(await reader.readline())
    if reply.get("type") != "hello":
        raise RuntimeError(f"handshake failed: {reply}")
    return reader, writer


async def _stats(connection) -> Dict:
    reader, writer = connection
    writer.write(encode({"type": "stats", "id": "stats"}))
    await writer.drain()
    return json.loads(await reader.readline())["stats"]


def _fresh_cache_dir() -> str:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="cache-", dir=str(WORK_DIR))


def _setup_once(seed: int, seconds: float) -> Tuple[Server, str]:
    """One set-up: fresh interpreter build, server spawn, pre-warm."""

    code = (
        "import sys; sys.path[:0] = [{root!r}, {src!r}]; "
        "from perfbench.service_workload import build_inputs; "
        "build_inputs({seed!r}, {seconds!r})"
    ).format(root=str(ROOT), src=str(ROOT / "src"), seed=seed, seconds=seconds)
    subprocess.run([sys.executable, "-c", code], check=True, cwd=str(ROOT), timeout=120)
    cache_dir = _fresh_cache_dir()
    server = Server(cache_dir)
    try:
        hot = [entry["ref"] for entry in oracle.load_expected()["service_mixed"]["hot"]]
        asyncio.run(_prewarm(server, hot))
    except BaseException:
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
        raise
    return server, cache_dir


#: Attempts per pre-warm program (see :func:`_prewarm`).
PREWARM_ATTEMPTS = 3


async def _prewarm(server: Server, hot: List[str]) -> None:
    """Compile the hot pool into the server's cache, one request at a time.

    The server resolves requests in worker threads.  The first resolution of
    a pyfunc imports the corpus modules, and on Python 3.11 that import now
    and then fails with the import system's spurious ``_DeadlockError``
    (answered as an ``internal`` error).  Set-up retries such a program; the
    modules are imported by then, so requests of the measured phases never
    import them.
    """

    reader, writer = await _connect(server)
    try:
        pending = list(hot)
        for attempt in range(PREWARM_ATTEMPTS):
            requests = [Request(f"w{attempt}.{i}", ref,
                                encode(request_message(ref, f"w{attempt}.{i}")), 0.0)
                        for i, ref in enumerate(pending)]
            outcomes = await closed_loop([(reader, writer)], requests, 1)
            bad = [o for o in outcomes.values()
                   if o.response is None or o.response.get("type") != "result"]
            if not bad:
                return
            pending = [o.request.ref for o in bad]
        raise RuntimeError(f"pre-warm failed for {len(bad)} programs, first: "
                           f"{bad[0].request.ref} -> {bad[0].response}")
    finally:
        writer.close()
        await writer.wait_closed()


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


@dataclass
class Phases:
    """What the load phases returned, segment by segment."""

    #: Outcomes of each open-loop segment, then of each closed-loop chunk.
    segments: List[List[Outcome]] = field(default_factory=list)
    #: Wall time of each closed-loop chunk.
    chunk_seconds: List[float] = field(default_factory=list)
    #: Kernel timings of each pause; pause ``i`` precedes segment ``i``.
    pauses: List[List[float]] = field(default_factory=list)
    stats: Dict = field(default_factory=dict)

    def kernel(self, segment: int) -> float:
        """The median kernel time of the pauses around ``segment``."""

        return median(self.pauses[segment] + self.pauses[segment + 1])

    def kernels(self) -> List[float]:
        return [k for pause in self.pauses for k in pause]


async def _drive(server: Server, plan: Plan) -> Phases:
    phases = Phases()

    def pause() -> None:
        phases.pauses.append([time_kernel() for _ in range(KERNELS_PER_PAUSE)])

    connections = [await _connect(server) for _ in range(CONNECTIONS)]
    try:
        pause()
        for requests in plan.open_segments:
            outcomes = await open_loop(connections, requests)
            phases.segments.append(list(outcomes.values()))
            pause()
        for requests in plan.closed_chunks:
            start = time.perf_counter()
            outcomes = await closed_loop(connections, requests, PIPELINE_DEPTH)
            phases.chunk_seconds.append(time.perf_counter() - start)
            phases.segments.append(list(outcomes.values()))
            pause()
        phases.stats = await _stats(connections[0])
    finally:
        for _reader, writer in connections:
            writer.close()
            await writer.wait_closed()
    return phases


def _is_correct(outcome: Outcome, digests: Dict[str, str]) -> bool:
    response = outcome.response
    return (
        response is not None
        and response.get("type") == "result"
        and oracle.result_digest(response["result"]) == digests.get(outcome.request.ref)
    )


def run_service_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run ``service_mixed``; returns ``(correct, attempted, failed, metrics)``."""

    pool = oracle.load_expected()["service_mixed"]
    digests = {entry["ref"]: entry["digest"] for entry in pool["hot"] + pool["misses"]}
    instructions = {entry["ref"]: entry["instructions"] for entry in pool["hot"] + pool["misses"]}

    # The set-up that runs last leaves its pre-warmed server for the load.
    spawned: List[Tuple[Server, str]] = []

    def retire() -> None:
        while spawned:
            server, cache_dir = spawned.pop()
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)

    try:
        def setup() -> float:
            spawned.append(_setup_once(seed, seconds))
            return spawned[-1][0].cpu_seconds()

        setup_raw, setup_s = timed_setups(setup, SETUP_REPEATS, before=retire)
        server = spawned[-1][0]
        build_start = time.perf_counter()
        plan = build_inputs(seed, seconds)
        build_s = time.perf_counter() - build_start
        phases = asyncio.run(_drive(server, plan))
        server.stop()
        peak_rss_mb = server.peak_rss_mb
    finally:
        retire()

    open_segments = phases.segments[:OPEN_SEGMENTS]
    open_list = [o for segment in open_segments for o in segment]
    closed_list = [o for segment in phases.segments[OPEN_SEGMENTS:] for o in segment]
    everything = open_list + closed_list
    ok = {o.request.id: _is_correct(o, digests) for o in everything}
    attempted = len(everything)
    failed = sum(1 for v in ok.values() if not v)

    # Checks in-process, after the load: every served program's result
    # against its digest, pyfuncs against CPython, static spill counts.
    check = _check_programs(plan.hot + plan.miss_refs, digests, seed, trace)
    for line in check.problems[:10]:
        note(f"FAILURE {line}")
    correct = failed == 0 and not check.problems

    raw_latencies = due_time_latencies(open_list, ok)
    latencies = [
        at_reference_speed(ms, phases.kernel(k))
        for k, segment in enumerate(open_segments)
        for ms in due_time_latencies(segment, ok)
    ]
    raw_rps, chunk_rps = [], []
    for c, elapsed in enumerate(phases.chunk_seconds):
        segment = phases.segments[OPEN_SEGMENTS + c]
        good = sum(1 for o in segment if ok[o.request.id])
        raw_rps.append(good / elapsed)
        chunk_rps.append(good / at_reference_speed(elapsed, phases.kernel(OPEN_SEGMENTS + c)))
    lateness = [o.sent - o.due for o in open_list if o.sent is not None]
    late_p95_ms = percentile([x * 1000.0 for x in lateness], 95)
    valid = late_p95_ms <= MAX_LATENESS_SHARE * SLO_MS
    note(f"open loop: {len(open_list)} requests at {OPEN_RATE_RPS:g}/s in {OPEN_SEGMENTS} "
         f"segments; generator lateness p95 {late_p95_ms:.3f} ms -> run "
         f"{'valid' if valid else 'INVALID'} (limit {MAX_LATENESS_SHARE * SLO_MS:g} ms)")
    note(f"closed loop: {len(closed_list)} requests in {len(chunk_rps)} chunks, normalised "
         f"chunk throughput {', '.join(f'{x:.1f}' for x in chunk_rps)} /s")
    note("pause kernel medians: "
         + ", ".join(f"{median(pause) * 1000:.2f}" for pause in phases.pauses) + " ms")

    served = {}
    for o in everything:
        if ok[o.request.id]:
            served[o.request.ref] = o.response["result"]
    ratios = []
    zero_baseline = 0
    for result in served.values():
        overhead = result["techniques_overhead"]
        base = overhead["baseline"]["total_overhead"]
        if base > 0:
            ratios.append(overhead["optimized"]["total_overhead"] / base)
        else:
            zero_baseline += 1
    note(f"dyn_overhead_ratio over {len(ratios)} served programs; {zero_baseline} excluded "
         f"with zero baseline overhead")

    misses = [o for o in everything if ok[o.request.id] and o.response["service"]["cache"] == "miss"]
    batches = per_batch_compile_ms(misses)
    server_rows = []
    for outcome in misses:
        pass_s = uncached_pass_seconds(outcome.response)
        if pass_s is not None:
            server_rows.append((instructions[outcome.request.ref], pass_s))
    note(f"server: {len(batches)} batches for {len(misses)} misses; cold-compile pass time "
         f"{sum(s for _n, s in server_rows) * 1e6 / sum(n for n, _s in server_rows):.1f} "
         f"us/instr (raw), largest/smallest third {_thirds_ratio(server_rows):.3f}")
    note(f"raw: setup_s {median(setup_raw):.4f}, req_ms p50 {percentile(raw_latencies, 50):.3f} "
         f"p95 {percentile(raw_latencies, 95):.3f}, throughput_rps {median(raw_rps):.2f}")
    note(f"req_ms p50/p95 over {len(latencies)} open-loop requests")

    if trace:
        return _trace_metrics(seed, phases, check, everything, ok, misses, batches,
                              late_p95_ms, build_s, correct, attempted, failed)
    instr = sum(n for n, _s, _k in check.timings)
    rate = instr / sum(at_reference_speed(s, k) for _n, s, k in check.timings)
    note(f"compile_instr_per_s: normalised {rate:.1f}, raw "
         f"{instr / sum(s for _n, s, _k in check.timings):.1f}, serial in-process cold "
         f"compiles of the {len(check.timings)} served programs, each normalised by the "
         f"kernel timed before its block of {CHECK_BLOCK} (median "
         f"{median(check.kernels) * 1000:.3f} ms)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "compile_instr_per_s": (rate, "instr/s"),
        "size_scaling_ratio": (_thirds_ratio([(n, s) for n, s, _k in check.timings]), "ratio"),
        "dyn_overhead_ratio": (geometric_mean(ratios), "ratio"),
        "spill_instrs": (check.spill_instrs, "count"),
        "correct_frac": (correct_frac(everything, ok), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "req_ms_p50": (percentile(latencies, 50), "ms"),
        "req_ms_p95": (percentile(latencies, 95), "ms"),
        "within_slo_frac": (within_slo_frac(open_list, ok, SLO_MS), "frac"),
        "throughput_rps": (median(chunk_rps), "1/s"),
    }
    note(f"server counters: {json.dumps(phases.stats['requests'], sort_keys=True)}")
    return correct and valid, attempted, failed, metrics


def _thirds_ratio(rows: List[Tuple[int, float]]) -> float:
    """µs/instr of the largest third of ``(instructions, seconds)`` rows ÷ the smallest third.

    Each third's µs/instr is its total time over its total instructions;
    every program is compiled once, so a median would rest on single
    timings.
    """

    rows = sorted(rows)
    third = max(1, len(rows) // 3)

    def per_instr(part: List[Tuple[int, float]]) -> float:
        return sum(s for _n, s in part) / sum(n for n, _s in part)

    return per_instr(rows[-third:]) / per_instr(rows[:third])


@dataclass
class ProgramCheck:
    problems: List[str] = field(default_factory=list)
    #: ``(instructions, CPU seconds, kernel CPU seconds of its block)`` of
    #: each untraced in-process compile.
    timings: List[Tuple[int, float]] = field(default_factory=list)
    kernels: List[float] = field(default_factory=list)
    spill_instrs: int = 0
    spilled_vregs: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    traced_instr: int = 0
    layer_us: Dict[str, List[float]] = field(default_factory=dict)
    entry_kb: List[float] = field(default_factory=list)


def _check_programs(refs: List[str], digests: Dict[str, str], seed: int,
                    trace: bool) -> ProgramCheck:
    """Compile every served program in-process and check it without the server."""

    from repro.pipeline.compiler import compile_procedure
    from repro.service.protocol import parse_compile_request, resolve_compile_request, result_payload
    from repro.target.registry import resolve_target
    from repro.workloads.catalog import get_catalog

    machine = resolve_target(TARGET)
    catalog = get_catalog()
    check = ProgramCheck(counts={f"spill.{k}.{t}": 0 for k in ("saves", "restores")
                                 for t in oracle.TECHNIQUES})
    if trace:
        check.tracer = Tracer(CPU_CLOCK)
    for index, ref in enumerate(refs):
        message = request_message(ref, f"check{index}")
        if trace and index < TRACE_MIRROR_PROGRAMS:
            compiled, resolved = _traced_service_path(check, message, machine, index)
        else:
            if index % CHECK_BLOCK == 0:
                check.kernels.append(time_kernel(CPU_CLOCK))
            resolved = resolve_compile_request(parse_compile_request(message))
            start = CPU_CLOCK()
            compiled = compile_procedure((resolved.function, resolved.profile),
                                         machine=machine, cost_model=COST_MODEL)
            check.timings.append((resolved.function.instruction_count(),
                                  CPU_CLOCK() - start, check.kernels[-1]))
        if oracle.result_digest(result_payload(resolved, compiled)) != digests[ref]:
            check.problems.append(f"{ref}: in-process result differs from the recorded digest")
        summary = oracle.outcome_summary(compiled)
        check.spill_instrs += summary["optimized"][1] + summary["optimized"][2]
        check.spilled_vregs += compiled.allocation.num_spilled
        for t in oracle.TECHNIQUES:
            check.counts[f"spill.saves.{t}"] += summary[t][1]
            check.counts[f"spill.restores.{t}"] += summary[t][2]
        if ref.startswith("catalog:"):
            entry = catalog.resolve(ref.split(":")[1])
            if entry.kind == "pyfunc":
                check.problems.extend(
                    oracle.pyfunc_semantics_check(entry, compiled, machine, seed))
    return check


def _traced_service_path(check: ProgramCheck, message: Dict, machine, index: int):
    """Replay one request through the service's public layer functions, in spans."""

    from repro.cache.store import CompileCache
    from repro.ir.fingerprint import compile_options_token, procedure_cache_key
    from repro.service.protocol import (
        CompileAnswer,
        decode_message,
        encode_message,
        parse_compile_request,
        resolve_compile_request,
        result_payload,
    )
    from repro.spill.cost_models import make_cost_model
    from perfbench.layers import traced_compile

    tracer = check.tracer
    rid = message["id"]
    line = encode(message)
    with tracer.span("service.decode", rid=rid):
        request = parse_compile_request(decode_message(line))
    with tracer.span("service.resolve", rid=rid):
        resolved = resolve_compile_request(request)
    token = compile_options_token(machine, make_cost_model(COST_MODEL, machine),
                                  request.techniques, True, True)
    with tracer.span("ir.cache_key", rid=rid):
        key = procedure_cache_key(resolved.function, resolved.profile, token, kind="compile")
    compiled, _seconds = traced_compile(
        tracer, (resolved.function, resolved.profile), machine, rid, mirror_first=index % 2 == 1)
    check.traced_instr += resolved.function.instruction_count()
    cache_dir = _fresh_cache_dir()
    try:
        with tracer.span("cache.put", rid=rid):
            CompileCache(cache_dir).put(key, compiled)
        cold = CompileCache(cache_dir, memory_entries=0)
        with tracer.span("cache.get_hit", rid=rid):
            hit = cold.get(key)
        if hit is None:
            check.problems.append(f"{rid}: cache entry written but not read back")
        entry = cold._path(key)
        check.entry_kb.append(entry.stat().st_size / 1024.0)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with tracer.span("service.payload", rid=rid):
        payload = result_payload(resolved, compiled)
    answer = CompileAnswer(result=payload, pass_seconds=dict(compiled.pass_seconds))
    with tracer.span("service.encode", rid=rid):
        encode_message(answer.to_message(rid))
    return compiled, resolved


def _trace_metrics(seed, phases: Phases, check: ProgramCheck, everything, ok, misses, batches,
                   late_p95_ms, build_s, correct, attempted, failed):
    from perfbench.layers import compile_layer_metrics

    tracer = check.tracer
    # Client-side request spans, with the server-reported queue wait and
    # batch compile as children; a request's self time is its residual.
    for outcome in everything:
        if outcome.received is None or outcome.sent is None:
            continue
        parent = tracer.add("service.request", outcome.due, outcome.received, None,
                            rid=outcome.request.id)
        timing = outcome.response.get("timing") if outcome.response else None
        if timing:
            end = outcome.received
            compile_s = timing["compile_ms"] / 1000.0
            queue_s = timing["queue_ms"] / 1000.0
            tracer.add("service.batch_compile", end - compile_s, end, parent, outcome.request.id)
            tracer.add("service.queue", end - compile_s - queue_s, end - compile_s, parent,
                       outcome.request.id)

    totals = tracer.totals()

    def mean_us(name: str) -> float:
        count, total = totals.get(name, (0, 0.0))
        return total * 1e6 / count if count else 0.0

    layer, sums = compile_layer_metrics(tracer, check.traced_instr)
    note(f"trace: compile_procedure {sums['compile_us']:.2f} us/instr; layer spans sum "
         f"{sums['layers_us']:.2f}; mirrored sequence {sums['mirror_us']:.2f} us/instr")

    miss_queue = [o.response["timing"]["queue_ms"] for o in misses]
    hits = [o for o in everything if ok[o.request.id] and o.response["service"]["cache"] == "hit"]
    open_hits = [o for o in hits if o.request.id.startswith("o")]
    residual = [
        (o.received - o.due) * 1000.0 - o.response["timing"]["queue_ms"]
        - o.response["timing"]["compile_ms"]
        for o in open_hits
    ]
    answered = [o for o in everything if o.response is not None and o.response.get("type") == "result"]
    requests = phases.stats["requests"]
    received = max(1, requests["received"])
    untraced_us = (sum(s for _n, s, _k in check.timings) * 1e6
                   / sum(n for n, _s, _k in check.timings))
    note(f"trace: tracing overhead: the load runs untraced in both modes (request spans are "
         f"built afterwards from the timestamps the load generator takes anyway), so req_ms_p50/p95 "
         f"carry none; on the in-process compile it is "
         f"{100.0 * (sums['compile_us'] / untraced_us - 1.0):+.2f}% ({sums['compile_us']:.2f} "
         f"traced vs {untraced_us:.2f} untraced us/instr, raw CPU time)")
    path = WORK_DIR / f"trace-service_mixed-seed{seed}.jsonl"
    tracer.write(path)
    note(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    metrics = {name: (value, "us/instr") for name, value in layer.items()}
    metrics.update({
        "workloads.build_s": (build_s, "s"),
        "regalloc.spilled_vregs": (check.spilled_vregs, "count"),
        "calibration.kernel_ms": (median(phases.kernels()) * 1000.0, "ms"),
        "ir.cache_key_us": (mean_us("ir.cache_key"), "us"),
        "cache.get_hit_us": (mean_us("cache.get_hit"), "us"),
        "cache.put_us": (mean_us("cache.put"), "us"),
        "cache.entry_kb": (median(check.entry_kb), "kB"),
        "cache.hit_frac": (len(hits) / max(1, len(answered)), "frac"),
        "service.decode_us": (mean_us("service.decode"), "us"),
        "service.resolve_us": (mean_us("service.resolve"), "us"),
        "service.payload_us": (mean_us("service.payload"), "us"),
        "service.encode_us": (mean_us("service.encode"), "us"),
        "service.queue_ms_p50": (percentile(miss_queue, 50), "ms"),
        "service.queue_ms_p95": (percentile(miss_queue, 95), "ms"),
        "service.batch_compile_ms_p50": (median(ms for ms, _size in batches), "ms"),
        "service.residual_ms_p50": (median(residual), "ms"),
        "service.batch_mean_size": (phases.stats["batches"]["mean_size"], "req/batch"),
        "service.coalesced_frac": (requests["coalesced"] / received, "frac"),
        "service.refused_frac": (
            (requests["rejected_overloaded"] + requests["rejected_shutting_down"]) / received,
            "frac"),
        "loadgen.late_ms_p95": (late_p95_ms, "ms"),
    })
    metrics.update({name: (value, "count") for name, value in check.counts.items()})
    return correct, attempted, failed, metrics
