"""Tests for the process-pool parallel evaluation engine.

The central guarantee: sharding over workers changes *nothing* about the
measurements.  Aggregation runs in generation order on both paths, so every
float — overheads, counts — must be bit-identical between ``workers=1`` and
``workers=N`` (only ``pass_seconds`` differ, being timing readings).
"""

import pytest

from repro.evaluation.parallel import _chunk_plan, effective_workers, resolve_workers
from repro.evaluation.runner import run_benchmark, run_suite
from repro.pipeline.compiler import CompileRecord, compile_many, compile_procedure
from repro.workloads.spec_like import build_suite

#: A tiny but non-degenerate slice of the suite: gzip has cold procedures,
#: gcc has jump-edge shapes, mcf is small.
NAMES = ("gzip", "gcc", "mcf")
SCALE = 0.1


def _strip_timings(measurement):
    """Everything deterministic about a suite measurement."""

    return [
        (
            m.name,
            m.num_procedures,
            m.num_blocks,
            m.num_instructions,
            m.allocator_overhead,
            dict(m.callee_saved_overhead),
            sorted(m.pass_seconds),  # keys are deterministic, values are time
        )
        for m in measurement.benchmarks
    ]


@pytest.fixture(scope="module")
def serial_measurement():
    return run_suite(names=NAMES, scale=SCALE, workers=1)


class TestResolveWorkers:
    def test_none_means_all_cores(self):
        assert resolve_workers(None) >= 1

    def test_explicit_value_passes_through(self):
        assert resolve_workers(3) == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_auto_mode_falls_back_to_serial_on_single_core(self, monkeypatch):
        """Regression: a pool on one core is pure overhead (0.89x in
        docs/performance.md), so ``workers=None`` must resolve to serial."""

        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers(None) == 1

    def test_auto_mode_handles_unknown_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(None) == 1

    def test_auto_mode_respects_affinity_mask(self, monkeypatch):
        """cpu_count reports the *host*; a 1-CPU affinity mask (container
        quota) must still mean serial."""

        import os
        import repro.evaluation.parallel as parallel_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert parallel_mod.available_cpus() == 1
            assert resolve_workers(None) == 1

    def test_auto_mode_never_spawns_a_pool_on_single_core(self, monkeypatch):
        import os
        import repro.evaluation.parallel as parallel_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("auto mode on a single core must stay serial")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        benchmark = build_suite(names=["mcf"], scale=SCALE)[0]
        measurement = run_benchmark(benchmark, workers=None)
        assert measurement.num_procedures == len(benchmark.procedures)

    def test_explicit_workers_still_shard_on_single_core(self, monkeypatch):
        """An explicit ``--workers 2`` is honoured even when auto would not."""

        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers(2) == 2


class TestEffectiveWorkers:
    """``workers_used`` must report what actually ran, not the request."""

    def test_serial_fallbacks_report_one(self):
        assert effective_workers(1, total=100) == 1
        assert effective_workers(8, total=1) == 1  # batch too small to shard

    def test_shardable_batch_reports_the_pool_size(self):
        assert effective_workers(4, total=100) == 4

    def test_pool_size_capped_by_batch_size(self):
        """A 3-procedure batch never fills an 8-worker pool — the executor
        caps at the chunk count, and the honest number must match."""

        assert effective_workers(8, total=3) == 3

    def test_run_suite_records_actual_not_requested_workers(self, monkeypatch):
        import repro.evaluation.parallel as parallel_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("a one-procedure suite must run serially")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        # mcf at this scale is one procedure: eight workers are requested,
        # the batch is too small to shard, and one is what ran.
        measurement = run_suite(names=["mcf"], scale=SCALE, workers=8)
        assert measurement.benchmarks[0].num_procedures == 1
        assert measurement.workers_used == 1


class TestChunkPlan:
    def test_covers_every_procedure_in_order(self):
        plan = _chunk_plan(13, workers=2)
        covered = []
        for start, stop in plan:
            assert start < stop
            covered.extend(range(start, stop))
        assert covered == list(range(13))

    def test_empty_batch(self):
        assert _chunk_plan(0, workers=4) == []

    def test_chunk_size_spans_the_whole_batch(self):
        # 8 procedures over 2 workers * 4 chunks-per-worker => chunk size 1.
        assert len(_chunk_plan(8, workers=2)) == 8


class TestParallelIdenticalToSerial:
    def test_run_suite_workers4_bit_identical(self, serial_measurement):
        parallel = run_suite(names=NAMES, scale=SCALE, workers=4)
        assert _strip_timings(parallel) == _strip_timings(serial_measurement)

    def test_run_benchmark_workers2_bit_identical(self):
        benchmark = build_suite(names=["gzip"], scale=SCALE)[0]
        serial = run_benchmark(benchmark, workers=1)
        parallel = run_benchmark(benchmark, workers=2)
        assert serial.allocator_overhead == parallel.allocator_overhead
        assert serial.callee_saved_overhead == parallel.callee_saved_overhead
        assert serial.num_procedures == parallel.num_procedures
        assert serial.num_blocks == parallel.num_blocks
        assert serial.num_instructions == parallel.num_instructions

    def test_non_default_target_and_model(self):
        serial = run_suite(
            names=["mcf"], scale=SCALE, machine="micro",
            cost_model="execution_count", workers=1,
        )
        parallel = run_suite(
            names=["mcf"], scale=SCALE, machine="micro",
            cost_model="execution_count", workers=2,
        )
        assert _strip_timings(serial) == _strip_timings(parallel)


class TestSerialFallback:
    def test_workers1_never_spawns(self, monkeypatch):
        import repro.evaluation.parallel as parallel_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        benchmark = build_suite(names=["mcf"], scale=SCALE)[0]
        measurement = run_benchmark(benchmark, workers=1)
        assert measurement.num_procedures == len(benchmark.procedures)

    def test_single_procedure_stays_serial(self, monkeypatch):
        import repro.evaluation.parallel as parallel_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("a single procedure must not spawn workers")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        procedures = build_suite(names=["mcf"], scale=SCALE)[0].procedures[:1]
        records = compile_many(procedures, workers=8)
        assert len(records) == 1
        assert isinstance(records[0], CompileRecord)


class TestCompileMany:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_equal_compile_procedure_records(self, workers):
        procedures = build_suite(names=["gzip"], scale=0.3)[0].procedures
        records = compile_many(procedures, workers=workers)
        assert records == [compile_procedure(p).record for p in procedures]
        assert all(isinstance(r, CompileRecord) for r in records)

    def test_record_matches_compiled_procedure(self):
        procedure = build_suite(names=["mcf"], scale=SCALE)[0].procedures[0]
        compiled = compile_procedure(procedure)
        record = compiled.record
        assert record.name == compiled.name
        assert record.num_blocks == len(compiled.allocation.function)
        assert record.num_instructions == compiled.allocation.function.instruction_count()
        assert record.allocator_overhead == compiled.allocator_overhead
        assert record.pass_seconds == tuple(compiled.pass_seconds.items())
        for technique in ("baseline", "shrinkwrap", "optimized"):
            assert record.overhead(technique) is compiled.outcomes[technique].overhead
            assert record.callee_saved_overhead(technique) == compiled.callee_saved_overhead(
                technique
            )
            assert record.total_overhead(technique) == compiled.total_overhead(technique)


class TestPoolTeardown:
    """A failing procedure must never leak worker processes (PR-5 satellite)."""

    def test_worker_failure_propagates_and_leaves_no_children(self):
        import multiprocessing
        import time

        procedures = list(build_suite(names=["mcf"], scale=SCALE)[0].procedures)
        # A picklable "procedure" that explodes inside the worker: the
        # pair unpacks, but allocation chokes on the non-IR payload.
        poisoned = procedures[:3] + [("not a function", "not a profile")] + procedures[3:]
        with pytest.raises(Exception):
            compile_many(poisoned, workers=2)
        # The pool was shut down with its workers joined: no child
        # processes survive the failure (allow a moment for reaping).
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_tears_the_pool_down(self, monkeypatch):
        """Simulated ^C while collecting results: the engine must cancel
        pending chunks and join every worker before re-raising."""

        import multiprocessing
        import time

        procedures = list(build_suite(names=["gzip"], scale=0.2)[0].procedures)

        def interrupting_result(self, timeout=None):
            raise KeyboardInterrupt

        # Interrupt the parent at the first result collection.
        monkeypatch.setattr(
            "concurrent.futures.Future.result", interrupting_result
        )
        with pytest.raises(KeyboardInterrupt):
            compile_many(procedures, workers=2)
        monkeypatch.undo()

        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
