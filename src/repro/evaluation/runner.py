"""Compiling the synthetic suite and aggregating per-benchmark measurements.

Both drivers accept a ``workers`` argument: ``workers=1`` (the default)
compiles in-process, ``workers=N`` shards the procedures over an ``N``-worker
process pool, and ``workers=None`` uses every available core (serial on a
single-core machine).  Both compile through one
:func:`~repro.pipeline.compiler.compile_many` call and aggregate its
per-procedure records (:class:`~repro.pipeline.compiler.CompileRecord`) in
generation order, so parallel and serial runs produce bit-identical
measurements (only the timings differ — they are measurements of time, not
of code).

Both drivers also accept ``cache=`` (a
:class:`~repro.cache.store.CompileCache` or a directory path): compile
results are content-addressed, so repeated runs of an unchanged suite under
an unchanged configuration reuse every per-procedure result and do no
placement work at all.

Timing accounting is two-dimensional and the two must not be conflated:

* ``pass_seconds`` are **CPU-seconds**: per-pass durations measured in
  whichever process compiled the procedure and *summed* across procedures —
  under ``workers=N`` they add up concurrent work and can exceed elapsed
  time by up to a factor of N;
* ``wall_seconds`` is **elapsed wall-clock** of the driver call, measured
  once in the parent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.cache.store import CacheSpec
from repro.evaluation.parallel import effective_workers
from repro.pipeline.compiler import (
    TECHNIQUES,
    CompileRecord,
    TargetSpec,
    compile_many,
)
from repro.spill.cost_models import CostModel, make_cost_model
from repro.target.registry import resolve_target
from repro.workloads.spec_like import SyntheticBenchmark, build_suite


@dataclass
class BenchmarkMeasurement:
    """Aggregated overheads and timings for one benchmark."""

    name: str
    #: Callee-saved dynamic overhead (saves + restores + spill jumps) per technique.
    callee_saved_overhead: Dict[str, float] = field(default_factory=dict)
    #: Allocator spill overhead (identical across techniques).
    allocator_overhead: float = 0.0
    #: Accumulated per-pass **CPU-seconds**, keyed by pass name: durations
    #: measured in whichever process compiled each procedure, summed over
    #: procedures.  Under ``workers=N`` this adds up concurrent work — it is
    #: *not* elapsed time (that is :attr:`wall_seconds`).
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    #: Elapsed wall-clock of this benchmark's own :func:`run_benchmark`
    #: call.  ``0.0`` inside a suite run, where benchmarks share one pool
    #: and per-benchmark elapsed time is not separable (see
    #: :attr:`SuiteMeasurement.wall_seconds`).
    wall_seconds: float = 0.0
    num_procedures: int = 0
    num_blocks: int = 0
    num_instructions: int = 0
    paper_optimized_ratio: Optional[float] = None
    paper_shrinkwrap_ratio: Optional[float] = None

    def total_overhead(self, technique: str) -> float:
        """Figure 5's quantity: allocator spill code plus callee-saved code."""

        return self.allocator_overhead + self.callee_saved_overhead.get(technique, 0.0)

    def ratio_to_baseline(self, technique: str) -> float:
        """Table 1's quantity: technique overhead relative to entry/exit placement."""

        baseline = self.total_overhead("baseline")
        if baseline <= 0.0:
            return 1.0
        return self.total_overhead(technique) / baseline

    def cpu_seconds_total(self) -> float:
        """Total CPU-seconds across all passes (not elapsed time)."""

        return sum(self.pass_seconds.values())

    def deterministic_view(self):
        """Every deterministic field, timings excluded.

        The single projection the bit-identity checks compare — the
        serial-vs-parallel and cold-vs-warm benchmarks and the cache tests
        all use it, so adding a deterministic field here strengthens every
        check at once.
        """

        return (
            self.name,
            self.num_procedures,
            self.num_blocks,
            self.num_instructions,
            self.allocator_overhead,
            sorted(self.callee_saved_overhead.items()),
        )

    def incremental_seconds(self, technique: str) -> float:
        """Table 2's quantity: pass CPU time beyond the entry/exit pass."""

        return max(
            self.pass_seconds.get(technique, 0.0) - self.pass_seconds.get("baseline", 0.0),
            0.0,
        )


@dataclass
class SuiteMeasurement:
    """Measurements for every benchmark of a suite run."""

    benchmarks: List[BenchmarkMeasurement] = field(default_factory=list)
    cost_model: str = "jump_edge"
    #: Elapsed wall-clock of the whole suite run, measured in the parent.
    wall_seconds: float = 0.0
    #: The worker count the run actually used (1 = serial, including every
    #: serial-fallback case: one requested or a batch too small).  A fully
    #: cache-warm run skips the pool regardless.
    workers_used: int = 1

    def cpu_seconds_total(self) -> float:
        """Summed pass CPU-seconds of every benchmark (not elapsed time)."""

        return sum(m.cpu_seconds_total() for m in self.benchmarks)

    def deterministic_view(self) -> List[tuple]:
        """Per-benchmark deterministic fields (no timings) for bit-comparison."""

        return [m.deterministic_view() for m in self.benchmarks]

    def benchmark(self, name: str) -> BenchmarkMeasurement:
        """The measurement of one benchmark, looked up by name."""

        for measurement in self.benchmarks:
            if measurement.name == name:
                return measurement
        raise KeyError(f"no benchmark named {name!r} in this suite run")

    def names(self) -> List[str]:
        """The measured benchmark names, in suite order."""

        return [m.name for m in self.benchmarks]

    def average_ratio(self, technique: str) -> float:
        """Mean overhead ratio to the baseline across all benchmarks."""

        ratios = [m.ratio_to_baseline(technique) for m in self.benchmarks]
        return sum(ratios) / len(ratios) if ratios else 1.0


def _new_measurement(
    benchmark: SyntheticBenchmark, techniques: Sequence[str]
) -> BenchmarkMeasurement:
    return BenchmarkMeasurement(
        name=benchmark.name,
        callee_saved_overhead={technique: 0.0 for technique in techniques},
        paper_optimized_ratio=benchmark.spec.paper_optimized_ratio,
        paper_shrinkwrap_ratio=benchmark.spec.paper_shrinkwrap_ratio,
    )


def _aggregate(
    measurement: BenchmarkMeasurement,
    records: Sequence[CompileRecord],
    techniques: Sequence[str],
) -> BenchmarkMeasurement:
    """Fold per-procedure records into the benchmark aggregate.

    The single accumulation loop every driver runs, in procedure-generation
    order — floating-point addition is not associative, so sharing the
    order (and the code) is what makes parallel measurements bit-identical
    to serial ones.
    """

    for record in records:
        measurement.num_procedures += 1
        measurement.num_blocks += record.num_blocks
        measurement.num_instructions += record.num_instructions
        measurement.allocator_overhead += record.allocator_overhead
        for technique in techniques:
            measurement.callee_saved_overhead[technique] += record.callee_saved_overhead(
                technique
            )
        for name, seconds in record.pass_seconds:
            measurement.pass_seconds[name] = measurement.pass_seconds.get(name, 0.0) + seconds
    return measurement


def run_benchmark(
    benchmark: SyntheticBenchmark,
    machine: TargetSpec = None,
    cost_model: Union[CostModel, str] = "jump_edge",
    techniques: Sequence[str] = TECHNIQUES,
    verify: bool = True,
    maximal_regions: bool = True,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
) -> BenchmarkMeasurement:
    """Compile every procedure of one benchmark and aggregate the measurements.

    ``workers`` shards the procedures over a process pool (``None`` = all
    available cores).  ``cache`` reuses per-procedure records across runs;
    only misses are compiled.
    """

    started = time.perf_counter()
    measurement = _new_measurement(benchmark, techniques)
    records = compile_many(
        benchmark.procedures,
        machine=machine,
        cost_model=cost_model,
        techniques=techniques,
        verify=verify,
        maximal_regions=maximal_regions,
        workers=workers,
        cache=cache,
    )
    _aggregate(measurement, records, techniques)
    measurement.wall_seconds = time.perf_counter() - started
    return measurement


def run_suite(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    machine: TargetSpec = None,
    cost_model: Union[CostModel, str] = "jump_edge",
    verify: bool = True,
    maximal_regions: bool = True,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
) -> SuiteMeasurement:
    """Generate and measure the whole SPEC-like suite (or a named subset).

    The workload generation itself is target-parameterized: the suite's
    register-pressure knobs scale with ``machine``'s callee-saved file size,
    so an 8-register target sees proportionally lean procedures and a
    64-register target sees fat ones.

    ``workers`` shards at *procedure* granularity across the whole suite
    (one shared pool — small benchmarks ride along with large ones), with
    ``None`` meaning every available core.  Parallel runs return
    bit-identical measurements to serial ones; see
    :mod:`repro.evaluation.parallel`.  ``cache`` makes repeat runs cheap:
    unchanged procedures are answered from the store and never re-placed.
    """

    started = time.perf_counter()
    machine = resolve_target(machine)
    suite = build_suite(names=names, scale=scale, machine=machine)
    model_name = cost_model if isinstance(cost_model, str) else cost_model.name
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, machine)
    total_procedures = sum(len(benchmark.procedures) for benchmark in suite)
    measurement = SuiteMeasurement(
        cost_model=model_name,
        workers_used=effective_workers(workers, total_procedures),
    )
    # One batch for the whole suite (one shared pool — small benchmarks
    # ride along with large ones), split back by benchmark afterwards.
    records = compile_many(
        [procedure for benchmark in suite for procedure in benchmark.procedures],
        machine=machine,
        cost_model=cost_model,
        verify=verify,
        maximal_regions=maximal_regions,
        workers=workers,
        cache=cache,
    )
    start = 0
    for benchmark in suite:
        stop = start + len(benchmark.procedures)
        measurement.benchmarks.append(
            _aggregate(_new_measurement(benchmark, TECHNIQUES), records[start:stop], TECHNIQUES)
        )
        start = stop
    measurement.wall_seconds = time.perf_counter() - started
    return measurement
