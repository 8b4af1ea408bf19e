"""Tests for the pass manager, timing helpers and the compile pipeline."""

import time

import pytest

from repro.ir.module import Module
from repro.ir.passes import ensure_single_exit, remove_unreachable_blocks
from repro.pipeline.compiler import TECHNIQUES, compile_procedure
from repro.pipeline.passes import PassManager
from repro.pipeline.timing import Stopwatch
from repro.target.generic import riscish_target
from repro.workloads.generator import GeneratorConfig, generate_procedure
from repro.workloads.programs import diamond_function, loop_function, paper_example


class TestStopwatch:
    def test_measure_accumulates(self):
        watch = Stopwatch()
        with watch.measure("a"):
            sum(range(1000))
        with watch.measure("a"):
            sum(range(1000))
        assert watch.get("a") > 0
        assert watch.get("missing") == 0.0
        assert watch.total() == pytest.approx(watch.get("a"))

    def test_merge(self):
        first, second = Stopwatch(), Stopwatch()
        with first.measure("x"):
            pass
        with second.measure("x"):
            pass
        first.merge(second)
        assert first.get("x") >= second.get("x")

    def test_sleep_inside_measure_is_not_counted(self):
        # Pass time is the measuring thread's CPU time: a thread that is
        # asleep (or preempted by another process) accrues none.
        watch = Stopwatch()
        with watch.measure("idle"):
            time.sleep(0.05)
        assert watch.get("idle") < 0.025


class TestPassManager:
    def test_passes_run_in_order_with_records(self):
        manager = PassManager(verify_between_passes=True)
        calls = []
        manager.add_pass("first", lambda f: calls.append("first"))
        manager.add_pass("second", lambda f: calls.append("second"))
        records = manager.run_on_function(diamond_function())
        assert calls == ["first", "second"]
        assert [r.pass_name for r in records] == ["first", "second"]
        assert manager.total_seconds() >= 0
        assert manager.total_seconds("first") <= manager.total_seconds()

    def test_run_on_module(self):
        module = Module("m")
        module.add_function(diamond_function())
        module.add_function(loop_function())
        manager = PassManager()
        manager.add_pass("noop", lambda f: None)
        records = manager.run_on_module(module)
        assert len(records) == 2

    def test_standard_normalization_passes_compose(self):
        manager = PassManager(verify_between_passes=True)
        manager.add_pass("remove-unreachable", remove_unreachable_blocks)
        manager.add_pass("single-exit", ensure_single_exit)
        manager.run_on_function(loop_function())


class TestCompilePipeline:
    @pytest.fixture(scope="class")
    def compiled(self):
        procedure = generate_procedure(GeneratorConfig(name="pipeline", seed=9, num_segments=6))
        return compile_procedure(procedure)

    def test_all_techniques_measured(self, compiled):
        assert set(compiled.outcomes) == set(TECHNIQUES)
        for technique in TECHNIQUES:
            assert compiled.callee_saved_overhead(technique) >= 0

    def test_total_overhead_includes_allocator_spill(self, compiled):
        for technique in TECHNIQUES:
            assert compiled.total_overhead(technique) == pytest.approx(
                compiled.allocator_overhead + compiled.callee_saved_overhead(technique)
            )

    def test_optimized_never_worse(self, compiled):
        assert compiled.callee_saved_overhead("optimized") <= compiled.callee_saved_overhead("baseline") + 1e-6
        assert compiled.callee_saved_overhead("optimized") <= compiled.callee_saved_overhead("shrinkwrap") + 1e-6

    def test_pass_timings_recorded(self, compiled):
        for name in ("regalloc",) + TECHNIQUES:
            assert name in compiled.pass_seconds

    def test_function_profile_pair_input(self):
        example = paper_example()
        # Pre-allocated functions contain no virtual registers, so the
        # allocator is a no-op and the provided occupancy must be recomputed.
        compiled = compile_procedure((example.function, example.profile))
        assert compiled.name == "paper_example"

    def test_custom_machine_and_techniques(self):
        procedure = generate_procedure(GeneratorConfig(name="custom", seed=4, num_segments=4))
        compiled = compile_procedure(
            procedure, machine=riscish_target(), techniques=("baseline", "optimized")
        )
        assert set(compiled.outcomes) == {"baseline", "optimized"}

    def test_unknown_technique_rejected(self):
        procedure = generate_procedure(GeneratorConfig(name="bad", seed=4, num_segments=2))
        with pytest.raises(ValueError):
            compile_procedure(procedure, techniques=("baseline", "mystery"))
