"""Tests for profiles, synthetic profile derivation, the interpreter and overhead accounting."""

import pytest

from hypothesis import given, settings

from repro.ir.builder import FunctionBuilder
from repro.profiling.interpreter import (
    POISON,
    Interpreter,
    InterpreterError,
    run_with_convention_check,
)
from repro.profiling.profile_data import EdgeProfile, ProfileError
from repro.profiling.synthetic import (
    profile_from_block_frequencies,
    profile_from_branch_probabilities,
    uniform_profile,
)
from repro.spill.entry_exit import place_entry_exit
from repro.spill.insertion import apply_placement
from repro.spill.overhead import allocator_spill_overhead, placement_dynamic_overhead
from repro.target.parisc import parisc_target
from repro.workloads.programs import call_chain_function, diamond_function, loop_function, paper_example

from tests.conftest import generated_procedures
from tests.oracles.overhead import (
    measure_dynamic_overhead,
    measure_dynamic_overhead_by_execution,
)


class TestEdgeProfile:
    def test_paper_profile_is_flow_conserving(self):
        example = paper_example()
        assert example.profile.check_flow_conservation(example.function) == []

    def test_block_counts_of_paper_example(self):
        example = paper_example()
        counts = example.profile.block_counts(example.function)
        assert counts["A"] == 100 and counts["P"] == 100
        assert counts["D"] == 40 and counts["E"] == 10 and counts["F"] == 50
        assert counts["G"] == 25 and counts["K"] == 25 and counts["N"] == 25

    def test_virtual_edges_carry_the_invocation_count(self):
        example = paper_example()
        assert example.profile.edge_count(("__entry__", "A")) == 100
        assert example.profile.edge_count(("P", "__exit__")) == 100

    def test_imbalanced_profile_is_rejected(self):
        example = paper_example()
        broken = EdgeProfile(example.function.name, 100, dict(example.profile.edge_counts))
        broken.edge_counts[("A", "B")] = 5.0
        with pytest.raises(ProfileError):
            broken.validate(example.function)

    def test_invocations_inferred_from_counts(self):
        example = paper_example()
        inferred = EdgeProfile.from_counts(example.function, example.profile.edge_counts)
        assert inferred.invocations == pytest.approx(100)

    def test_scaled_profile(self):
        example = paper_example()
        double = example.profile.scaled(2.0)
        assert double.invocations == 200
        assert double.edge_count(("A", "B")) == 140


class TestSyntheticProfiles:
    def test_branch_probabilities_respected(self):
        function = diamond_function()
        profile = profile_from_branch_probabilities(
            function, invocations=100, probabilities={("entry", "then"): 0.25}
        )
        assert profile.edge_count(("entry", "then")) == pytest.approx(25)
        assert profile.edge_count(("entry", "else_")) == pytest.approx(75)
        profile.validate(function)

    def test_uniform_profile_splits_evenly(self):
        profile = uniform_profile(diamond_function(), invocations=10)
        assert profile.edge_count(("entry", "then")) == pytest.approx(5)

    def test_loop_trip_counts_from_exit_probability(self):
        function = loop_function()
        profile = profile_from_branch_probabilities(
            function, invocations=1, probabilities={("header", "after"): 0.1}
        )
        # Expected header executions: 1 / 0.1 = 10.
        assert profile.block_count(function, "header") == pytest.approx(10)
        profile.validate(function)

    def test_probabilities_exceeding_one_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_branch_probabilities(
                diamond_function(),
                probabilities={("entry", "then"): 0.8, ("entry", "else_"): 0.8},
            )

    def test_profile_from_block_frequencies(self):
        function = diamond_function()
        frequencies = {"entry": 100.0, "then": 25.0, "else_": 75.0, "merge": 100.0}
        rebuilt = profile_from_block_frequencies(function, frequencies, invocations=100)
        assert rebuilt.edge_count(("entry", "then")) == pytest.approx(25)
        assert rebuilt.edge_count(("entry", "else_")) == pytest.approx(75)
        assert rebuilt.check_flow_conservation(function) == []

    @given(generated_procedures(max_segments=5))
    def test_generated_profiles_are_flow_conserving(self, procedure):
        assert procedure.profile.check_flow_conservation(procedure.function) == []


class TestInterpreter:
    def test_loop_function_executes_and_counts(self):
        result = Interpreter().run(loop_function())
        assert result.block_counts["body"] == 10
        assert result.edge_counts[("body", "header")] == 10
        assert result.steps > 20

    def test_return_values(self):
        builder = FunctionBuilder("answer")
        builder.block("entry")
        value = builder.const(21)
        doubled = builder.mul(value, 2)
        builder.block("exit")
        builder.ret([doubled])
        result = Interpreter().run(builder.build())
        assert result.return_values == (42,)

    def test_arguments_bound_to_parameters(self):
        builder = FunctionBuilder("addone")
        param = builder.new_vreg()
        builder.function.params = (param,)
        builder.block("entry")
        result_reg = builder.add(param, 1)
        builder.block("exit")
        builder.ret([result_reg])
        result = Interpreter().run(builder.build(), args=[41])
        assert result.return_values == (42,)

    def test_module_calls_are_resolved(self):
        from repro.ir.module import Module
        from repro.ir.parser import parse_module

        module = parse_module(
            "func main() {\nentry:\n  li v0, #4\n  call @double(v0) -> (v1)\n  ret v1\n}\n\n"
            "func double(v0) {\nentry:\n  mul v1, v0, #2\n  ret v1\n}\n"
        )
        result = Interpreter(module=module).run(module.function("main"))
        assert result.return_values == (8,)
        assert result.calls_made == 1

    def test_external_calls_clobber_caller_saved_registers(self):
        machine = parisc_target()
        builder = FunctionBuilder("ext")
        builder.block("entry")
        builder.call("external")
        builder.block("exit")
        builder.ret()
        interp = Interpreter(machine=machine)
        run = interp.run(builder.build(), initial_registers={machine.caller_saved[0]: 7})
        assert run.calls_made == 1

    def test_step_limit_guards_against_infinite_loops(self):
        builder = FunctionBuilder("spin")
        builder.block("entry")
        builder.jump("entry")
        builder.block("unreachable_exit")
        builder.ret()
        with pytest.raises(InterpreterError):
            Interpreter(max_steps=100).run(builder.build())

    def test_purpose_counts_track_overhead(self):
        example = paper_example()
        function = example.function.clone()
        apply_placement(function, place_entry_exit(function, example.usage))
        run = Interpreter().run(function)
        assert run.purpose_counts["callee_save"] == 1
        assert run.executed_overhead() == 2

    def test_convention_check_passes_for_safe_function(self):
        machine = parisc_target()
        result = run_with_convention_check(loop_function(), machine)
        assert result.steps > 0

    def test_convention_check_runs_the_function_once(self, monkeypatch):
        machine = parisc_target()
        frames = []
        run_frame = Interpreter._run_frame

        def counting(self, function, frame, result):
            frames.append(function.name)
            return run_frame(self, function, frame, result)

        monkeypatch.setattr(Interpreter, "_run_frame", counting)
        result = run_with_convention_check(loop_function(), machine)
        assert frames == [loop_function().name]
        assert result.registers[machine.callee_saved[0]] == POISON

    def test_convention_check_reports_a_clobbered_callee_saved_register(self):
        machine = parisc_target()
        clobbered = machine.callee_saved[1]
        builder = FunctionBuilder("clobber")
        builder.block("entry")
        builder.const(7, dst=clobbered)
        builder.ret()
        with pytest.raises(InterpreterError) as excinfo:
            run_with_convention_check(builder.build(), machine)
        assert str(excinfo.value) == (
            f"callee-saved register {clobbered.name} not preserved by 'clobber': "
            f"expected {POISON - 1}, found 7"
        )


class TestOverheadAccounting:
    def test_analytic_overhead_of_rewritten_function(self):
        example = paper_example()
        function = example.function.clone()
        placement = place_entry_exit(function, example.usage)
        apply_placement(function, placement)
        breakdown = measure_dynamic_overhead(function, example.profile)
        assert breakdown.callee_saves == 100
        assert breakdown.callee_restores == 100
        assert breakdown.total == 200

    def test_allocator_spill_overhead_counts_only_spill_purpose(self):
        example = paper_example()
        assert allocator_spill_overhead(example.function, example.profile) == 0

    def test_execution_based_measurement_matches_structure(self):
        example = paper_example()
        function = example.function.clone()
        apply_placement(function, place_entry_exit(function, example.usage))
        breakdown = measure_dynamic_overhead_by_execution(function, Interpreter())
        assert breakdown.callee_saves == 1
        assert breakdown.callee_restores == 1

    def test_placement_overhead_breakdown_fields(self):
        example = paper_example()
        placement = place_entry_exit(example.function, example.usage)
        overhead = placement_dynamic_overhead(example.function, example.profile, placement)
        assert overhead.save_count == 100
        assert overhead.restore_count == 100
        assert overhead.jump_count == 0
        assert "saves=" in str(overhead)
