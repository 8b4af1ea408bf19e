"""The in-process compile workloads: ``table1`` and ``large_procs``.

A request here is one serial, cold ``compile_procedure`` call (register
allocation, the three placement techniques, verification and overhead
accounting) on target ``parisc`` with the jump-edge cost model.  No cache and
no service are involved.

``table1`` compiles the paper's Table 1 suite pass after pass, each pass in a
seeded order.  ``large_procs`` compiles a size ladder of generated
procedures (about 300, 1200 and 2300 instructions); the largest procedure
and the whole smallest class are compiled in adjacent pairs so that their
per-instruction cost ratio is read under the same host speed.

Compile times are this thread's CPU time (``common.CPU_CLOCK``).  The
calibration kernel is timed before every block of compiles and once after
the last; each compile is normalised by the mean of the kernel timings just
before and just after its block.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.common import (
    CPU_CLOCK,
    KERNEL_REF_S,
    ROOT,
    WORK_DIR,
    Tracer,
    at_reference_speed,
    calibration_kernel,
    geometric_mean,
    median,
    note,
    peak_rss_mb_self,
    percentile,
    time_kernel,
    timed_setups,
)
from perfbench import oracle

TARGET = "parisc"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A compile request meets the latency limit when it answers correctly
#: within this many milliseconds.
SLO_MS = {"table1": 250.0, "large_procs": 3000.0}

#: ``table1`` compiles its passes in blocks of about this many instructions;
#: the calibration kernel runs before every block.
TABLE1_BLOCK_INSTR = 2500

#: ``large_procs`` size ladder: class → generator segment count.  Segment
#: counts 24/96/192 give 296/1202/2317 instructions at seed 1.
LADDER_SEGMENTS = {"S": 24, "M": 96, "L": 192}

#: Procedures of the smallest class.  Together they hold about as many
#: instructions as the one procedure of the largest class.
LADDER_SMALL_POOL = 8

#: One ladder round is this many (L0, all of S) pairs plus one M0 compile,
#: in a seeded order.  L0 is then 2 of 19 compiles (10.5%), so p95 falls
#: well inside the L0 population rather than on its boundary.
LADDER_PAIRS_PER_ROUND = 2

#: The window is extended past ``--seconds`` (on a slow host) until the
#: complete passes or rounds hold at least this many untraced compiles, so
#: p95 always has ten samples beyond it.
MIN_SAMPLES = 210

#: The layer self times of the mirrored call sequence must add up to within
#: this share of the ``compile_procedure`` call on the same input, or the
#: layer split is not trusted.
TRACE_MARGIN = 0.10


@dataclass
class Procedure:
    name: str
    procedure: object
    instructions: int
    size_class: str = ""


def build_inputs(workload: str) -> List[Procedure]:
    """The workload's procedures; deterministic, independent of the seed."""

    from repro.workloads.generator import GeneratorConfig, generate_procedure
    from repro.workloads.spec_like import build_suite

    if workload == "table1":
        return [
            Procedure(p.name, p, p.function.instruction_count())
            for benchmark in build_suite()
            for p in benchmark.procedures
        ]
    if workload == "large_procs":
        procedures = []
        for size_class, segments in LADDER_SEGMENTS.items():
            count = LADDER_SMALL_POOL if size_class == "S" else 1
            for index in range(count):
                config = GeneratorConfig(
                    name=f"ladder_{size_class}{index}", seed=1 + index,
                    num_segments=segments,
                )
                generated = generate_procedure(config)
                procedures.append(
                    Procedure(generated.name, generated,
                              generated.function.instruction_count(), size_class)
                )
        return procedures
    raise ValueError(f"unknown compile workload {workload!r}")


def setup_once(workload: str) -> None:
    """A fresh interpreter imports the program and builds the workload's inputs."""

    code = (
        "import sys; sys.path[:0] = [{root!r}, {src!r}]; "
        "from perfbench.compile_workloads import build_inputs; "
        "build_inputs({workload!r})"
    ).format(root=str(ROOT), src=str(ROOT / "src"), workload=workload)
    subprocess.run([sys.executable, "-c", code], check=True, cwd=str(ROOT), timeout=120)


@dataclass
class Sample:
    proc: int
    seconds: float
    correct: bool
    pass_index: int
    #: Index in ``Run.kernels`` of the kernel timed before this compile's block.
    block: int
    #: Mean CPU time of the kernels timed before and after the block
    #: (set by ``Run.finish``).
    kernel: float = 0.0

    @property
    def normalised(self) -> float:
        return at_reference_speed(self.seconds, self.kernel)


@dataclass
class Run:
    procedures: List[Procedure]
    expected: Dict[str, Dict[str, List[float]]]
    machine: object
    tracer: Optional[Tracer] = None
    samples: List[Sample] = field(default_factory=list)
    traced_samples: List[Sample] = field(default_factory=list)
    #: ``large_procs``: the samples of each interleaved (L0, all of S) pair.
    pairs: List[List[Sample]] = field(default_factory=list)
    last: Dict[int, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    kernels: List[float] = field(default_factory=list)
    #: Untraced compiles in complete passes or rounds.
    complete: int = 0

    def done(self, deadline: float) -> bool:
        enough = self.tracer is not None or self.complete >= MIN_SAMPLES
        return enough and time.perf_counter() >= deadline

    def kernel(self) -> None:
        self.kernels.append(time_kernel(CPU_CLOCK))

    def finish(self) -> None:
        """Time the kernel after the last block and give every sample its kernel."""

        self.kernel()
        for sample in self.samples + self.traced_samples:
            sample.kernel = (self.kernels[sample.block] + self.kernels[sample.block + 1]) / 2

    def compile(self, index: int, pass_index: int, traced: bool = False) -> Sample:
        from repro.pipeline.compiler import compile_procedure
        from perfbench.layers import traced_compile

        proc = self.procedures[index]
        compiled = None
        error = None
        start = CPU_CLOCK()
        try:
            if traced:
                compiled, traced_seconds = traced_compile(
                    self.tracer, proc.procedure, self.machine, proc.name,
                    mirror_first=len(self.traced_samples) % 2 == 1)
            else:
                compiled = compile_procedure(proc.procedure, machine=self.machine,
                                             cost_model="jump_edge")
        except Exception as exc:  # noqa: BLE001 - a failed compile is a failed request
            error = f"{proc.name}: {type(exc).__name__}: {exc}"
        seconds = CPU_CLOCK() - start
        correct = False
        if compiled is not None:
            got = oracle.outcome_summary(compiled)
            correct = got == self.expected.get(proc.name)
            if not correct:
                error = f"{proc.name}: outcome {got} != expected {self.expected.get(proc.name)}"
            self.last[index] = compiled
        if error is not None:
            self.failures.append(error)
        sample = Sample(index, seconds, correct, pass_index, len(self.kernels) - 1)
        if traced:
            if compiled is not None:
                sample.seconds = traced_seconds
            self.traced_samples.append(sample)
        else:
            self.samples.append(sample)
        return sample


def _table1_loop(run: Run, rng: random.Random, deadline: float, trace: bool) -> int:
    """Compile the suite pass after pass; returns the number of complete passes."""

    passes = 0
    while passes == 0 or not run.done(deadline):
        order = list(range(len(run.procedures)))
        rng.shuffle(order)
        traced = trace and passes % 2 == 1
        block: List[int] = []
        size = 0
        blocks = []
        for index in order:
            block.append(index)
            size += run.procedures[index].instructions
            if size >= TABLE1_BLOCK_INSTR:
                blocks.append(block)
                block, size = [], 0
        if block:
            blocks.append(block)
        for block in blocks:
            if passes > 0 and run.done(deadline):
                return passes
            run.kernel()
            for index in block:
                run.compile(index, passes, traced=traced)
        passes += 1
        run.complete = len(run.samples)
    return passes


def _ladder_loop(run: Run, rng: random.Random, deadline: float, trace: bool) -> int:
    """Compile ladder rounds; records each interleaved (L0, all of S) pair."""

    small = [i for i, p in enumerate(run.procedures) if p.size_class == "S"]
    large = next(i for i, p in enumerate(run.procedures) if p.size_class == "L")
    middle = next(i for i, p in enumerate(run.procedures) if p.size_class == "M")
    rounds = 0
    while rounds == 0 or not run.done(deadline):
        traced = trace and rounds % 2 == 1
        units = ["pair"] * LADDER_PAIRS_PER_ROUND + ["single"]
        rng.shuffle(units)
        for unit in units:
            if rounds > 0 and run.done(deadline):
                return rounds
            # A pair is two blocks, L0 and the S class, in a seeded order,
            # with the kernel timed before, between and after them.
            blocks = [[large], small] if unit == "pair" else [[middle]]
            if rng.random() < 0.5:
                blocks.reverse()
            done = []
            for block in blocks:
                run.kernel()
                done.extend(run.compile(index, rounds, traced=traced) for index in block)
            if unit == "pair" and not traced and all(s.correct for s in done):
                run.pairs.append(done)
        rounds += 1
        run.complete = len(run.samples)
    return rounds


def _ladder_scaling(run: Run) -> float:
    """µs/instr of L0 ÷ µs/instr of the S class, from each procedure's median time.

    The samples come from the interleaved pairs, so both classes are
    sampled all through the run.
    """

    seconds = _median_seconds([s for pair in run.pairs for s in pair])

    def per_instr(size_class: str) -> float:
        members = [i for i in seconds if run.procedures[i].size_class == size_class]
        return (sum(seconds[i] for i in members)
                / sum(run.procedures[i].instructions for i in members))

    return per_instr("L") / per_instr("S")


def _median_seconds(samples: List[Sample], raw: bool = False) -> Dict[int, float]:
    """Per procedure: its median compile time, normalised unless ``raw``."""

    per_proc: Dict[int, List[float]] = {}
    for s in samples:
        per_proc.setdefault(s.proc, []).append(s.seconds if raw else s.normalised)
    return {index: median(times) for index, times in per_proc.items()}


def _normalised_rate(run: Run, samples: List[Sample], raw: bool = False) -> float:
    """Instructions per second at reference host speed (at the host's speed if ``raw``).

    Each procedure contributes its median compile time once.
    """

    seconds = _median_seconds(samples, raw)
    instructions = sum(run.procedures[i].instructions for i in seconds)
    return instructions / sum(seconds.values())


def _mix_weights(workload: str, run: Run) -> Dict[int, int]:
    """Compiles of each procedure in one pass (``table1``) or one round (``large_procs``)."""

    if workload == "table1":
        return {i: 1 for i in range(len(run.procedures))}
    return {
        i: {"S": LADDER_PAIRS_PER_ROUND, "M": 1, "L": LADDER_PAIRS_PER_ROUND}[p.size_class]
        for i, p in enumerate(run.procedures)
    }


def _normalised_throughput(workload: str, run: Run, samples: List[Sample]) -> float:
    """Compiles per second of one pass or round, each compile at its median time.

    Counting the compiles that happen to fit in the window instead would
    make the result depend on where the deadline cuts the last pass.  The
    caller scales it by the share of correct compiles.
    """

    seconds = _median_seconds(samples)
    weights = _mix_weights(workload, run)
    return sum(weights.values()) / sum(w * seconds[i] for i, w in weights.items())


def _table1_scaling(run: Run) -> float:
    """Median over complete passes of (µs/instr of the largest tenth ÷ smallest tenth)."""

    sizes = sorted(p.instructions for p in run.procedures)
    low = sizes[len(sizes) // 10]
    high = sizes[-(len(sizes) // 10) - 1]
    by_pass: Dict[int, List[Sample]] = {}
    for s in run.samples:
        by_pass.setdefault(s.pass_index, []).append(s)
    ratios = []
    for samples in by_pass.values():
        if len(samples) != len(run.procedures):
            continue
        small = [s for s in samples if run.procedures[s.proc].instructions <= low]
        large = [s for s in samples if run.procedures[s.proc].instructions >= high]

        def rate(group):
            return (sum(s.normalised for s in group)
                    / sum(run.procedures[s.proc].instructions for s in group))

        ratios.append(rate(large) / rate(small))
    return median(ratios)


def run_compile_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one compile workload; returns ``(correct, attempted, failed, metrics)``."""

    from repro.target.registry import resolve_target

    setup_raw, setup_s = timed_setups(lambda: setup_once(workload), SETUP_REPEATS)
    build_start = time.perf_counter()
    procedures = build_inputs(workload)
    build_s = time.perf_counter() - build_start
    expected = oracle.load_expected()[workload]
    machine = resolve_target(TARGET)
    run = Run(procedures, expected, machine, tracer=Tracer(CPU_CLOCK) if trace else None)
    rng = random.Random(f"perfbench/{workload}/{seed}")

    # Warm-up outside the window: one compile of each procedure is cold in
    # ways later ones are not (imports, per-target register indexes).
    from repro.pipeline.compiler import compile_procedure
    compile_procedure(procedures[0].procedure, machine=machine)
    calibration_kernel()

    start = time.perf_counter()
    deadline = start + seconds
    if workload == "table1":
        cycles = _table1_loop(run, rng, deadline, trace)
    else:
        cycles = _ladder_loop(run, rng, deadline, trace)
    elapsed = time.perf_counter() - start
    run.finish()

    # Checks that need no reference, once per distinct procedure.
    bad_procs = set()
    for index, compiled in run.last.items():
        problems = oracle.convention_check(compiled, machine)
        if problems:
            bad_procs.add(index)
            run.failures.extend(problems)
    missing = [p.name for i, p in enumerate(procedures) if i not in run.last]
    run.failures.extend(f"{name}: never compiled" for name in missing)

    all_samples = run.samples + run.traced_samples
    attempted = len(all_samples)
    correct_samples = [s for s in all_samples if s.correct and s.proc not in bad_procs]
    correct_frac = len(correct_samples) / attempted
    failed = attempted - len(correct_samples)
    for line in run.failures[:10]:
        note(f"FAILURE {line}")

    # Exact quality metrics over the distinct procedures of the workload.
    ratios = []
    zero_baseline = 0
    spill_instrs = 0
    spilled_vregs = 0
    counts = {f"spill.{kind}.{t}": 0 for kind in ("saves", "restores") for t in oracle.TECHNIQUES}
    for index in sorted(run.last):
        compiled = run.last[index]
        baseline = compiled.total_overhead("baseline")
        if baseline > 0:
            ratios.append(compiled.total_overhead("optimized") / baseline)
        else:
            zero_baseline += 1
        summary = oracle.outcome_summary(compiled)
        spill_instrs += summary["optimized"][1] + summary["optimized"][2]
        spilled_vregs += compiled.allocation.num_spilled
        for t in oracle.TECHNIQUES:
            counts[f"spill.saves.{t}"] += summary[t][1]
            counts[f"spill.restores.{t}"] += summary[t][2]

    note(f"workload {workload}: {len(procedures)} procedures, "
         f"{sum(p.instructions for p in procedures)} instructions, {cycles} passes/rounds "
         f"in {elapsed:.2f} s, {attempted} compiles")
    note(f"dyn_overhead_ratio over {len(ratios)} procedures; "
         f"{zero_baseline} excluded with zero baseline overhead")

    if trace:
        return _trace_metrics(workload, seed, run, build_s, spilled_vregs, counts,
                              correct_frac == 1.0 and not run.failures, attempted, failed)

    ok = [s for s in run.samples if s.correct and s.proc not in bad_procs]
    slo = SLO_MS[workload]
    within_slo = sum(1 for s in ok if s.seconds * 1000.0 <= slo) / len(run.samples)
    ok_ids = {id(s) for s in ok}
    # Latency quantiles come from complete passes (rounds) only: the seed
    # decides which procedures the cut-off last one holds.
    complete = [s for s in run.samples if s.pass_index < cycles]
    raw_ms = [s.seconds * 1000.0 if id(s) in ok_ids else float("inf") for s in complete]
    latencies_ms = [s.normalised * 1000.0 if id(s) in ok_ids else float("inf")
                    for s in complete]
    rate = _normalised_rate(run, run.samples)
    throughput = _normalised_throughput(workload, run, run.samples) * len(ok) / len(run.samples)
    if workload == "table1":
        scaling = _table1_scaling(run)
        scaling_n = len({s.pass_index for s in run.samples})
    else:
        scaling = _ladder_scaling(run)
        scaling_n = len(run.pairs)
    note(f"compile_instr_per_s: normalised {rate:.1f}, raw "
         f"{_normalised_rate(run, run.samples, raw=True):.1f} (kernel median "
         f"{median(run.kernels) * 1000:.3f} ms over {len(run.kernels)} samples, reference "
         f"{KERNEL_REF_S * 1000:.3f} ms)")
    note(f"raw: setup_s {median(setup_raw):.4f}, req_ms p50 {percentile(raw_ms, 50):.3f} "
         f"p95 {percentile(raw_ms, 95):.3f}")
    note(f"req_ms p50/p95 over {len(latencies_ms)} compiles of {cycles} complete passes/rounds; size_scaling_ratio "
         f"over {scaling_n} samples; SLO {slo:g} ms (raw)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "compile_instr_per_s": (rate, "instr/s"),
        "size_scaling_ratio": (scaling, "ratio"),
        "dyn_overhead_ratio": (geometric_mean(ratios), "ratio"),
        "spill_instrs": (spill_instrs, "count"),
        "correct_frac": (correct_frac, "frac"),
        "peak_rss_mb": (peak_rss_mb_self(), "MiB"),
        "req_ms_p50": (percentile(latencies_ms, 50), "ms"),
        "req_ms_p95": (percentile(latencies_ms, 95), "ms"),
        "within_slo_frac": (within_slo, "frac"),
        "throughput_rps": (throughput, "1/s"),
    }
    return correct_frac == 1.0 and not run.failures, attempted, failed, metrics


def _trace_metrics(workload, seed, run: Run, build_s, spilled_vregs, counts,
                   correct, attempted, failed):
    from perfbench.layers import compile_layer_metrics
    from perfbench.metrics import off_path_layer_metrics

    traced_instr = sum(run.procedures[s.proc].instructions for s in run.traced_samples)
    layer, check = compile_layer_metrics(run.tracer, traced_instr)
    # The layer spans are held against the black-box compile_procedure call
    # on the same input, timed next to them (nothing inside it is traced):
    # raw CPU times from different moments would differ with the host.
    # Traced and untraced passes alternate, so their normalised rates give
    # the tracing overhead.
    untraced = _normalised_rate(run, run.samples)
    traced = _normalised_rate(run, run.traced_samples)
    note(f"trace: compile_procedure {check['compile_us']:.2f} us/instr; layer self times sum "
         f"{check['layers_us']:.2f} (mirrored sequence {check['mirror_us']:.2f}); pipeline "
         f"self {layer['pipeline.self_us_per_instr']:.2f} us/instr (raw CPU time)")
    coverage = check["layers_us"] / check["compile_us"]
    verdict = "ok" if abs(coverage - 1.0) <= TRACE_MARGIN else "OUTSIDE"
    note(f"trace: layer self times / compile_procedure = {coverage:.3f} "
         f"(stated margin {TRACE_MARGIN:.2f}: {verdict})")
    note(f"trace: normalised compile_instr_per_s untraced {untraced:.1f}, traced {traced:.1f}; "
         f"tracing overhead {100.0 * (untraced / traced - 1.0):+.2f}%")
    path = WORK_DIR / f"trace-{workload}-seed{seed}.jsonl"
    run.tracer.write(path)
    note(f"trace: {len(run.tracer.spans)} spans written to {path.relative_to(ROOT)}")
    metrics = off_path_layer_metrics()
    metrics.update({name: (value, "us/instr") for name, value in layer.items()})
    metrics.update({
        "workloads.build_s": (build_s, "s"),
        "regalloc.spilled_vregs": (spilled_vregs, "count"),
        "calibration.kernel_ms": (median(run.kernels) * 1000.0, "ms"),
    })
    metrics.update({name: (value, "count") for name, value in counts.items()})
    return correct, attempted, failed, metrics
