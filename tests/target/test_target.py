"""Tests for the machine-description subsystem and the target registry."""

import pytest

from repro.ir.values import PhysicalRegister, preg
from repro.pipeline.compiler import TECHNIQUES, compile_many, compile_procedure
from repro.spill.cost_models import make_cost_model
from repro.spill.model import SpillKind, SpillLocation
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.entry_exit import place_entry_exit
from repro.target.generic import micro_target, riscish_target, tiny_target, wide_target
from repro.target.machine import MachineDescription, TargetError, register_range
from repro.target.parisc import parisc_target
from repro.target.registry import (
    DEFAULT_TARGET,
    available_targets,
    get_target,
    register_target,
    resolve_target,
)
from repro.workloads.generator import GeneratorConfig, config_for_target, generate_procedure
from repro.workloads.programs import paper_example
from repro.workloads.spec_like import SPEC_BENCHMARKS, scale_spec_for_target


class TestMachineDescription:
    def test_partition_is_disjoint_and_sets_match(self, registered_machine):
        machine = registered_machine
        assert machine.caller_saved_set.isdisjoint(machine.callee_saved_set)
        assert machine.caller_saved_set == frozenset(machine.caller_saved)
        assert machine.callee_saved_set == frozenset(machine.callee_saved)
        assert machine.allocation_order == machine.caller_saved + machine.callee_saved
        assert machine.num_registers == machine.num_caller_saved + machine.num_callee_saved

    def test_membership_queries(self, registered_machine):
        machine = registered_machine
        for register in machine.caller_saved:
            assert machine.is_caller_saved(register)
            assert not machine.is_callee_saved(register)
        for register in machine.callee_saved:
            assert machine.is_callee_saved(register)
            assert not machine.is_caller_saved(register)

    def test_register_lookup_by_name(self, registered_machine):
        machine = registered_machine
        first = machine.callee_saved[0]
        assert machine.register(first.name) == first
        with pytest.raises(TargetError):
            machine.register("no_such_register")

    def test_overlapping_partition_rejected(self):
        shared = register_range("r", 0, 4)
        with pytest.raises(TargetError):
            MachineDescription(name="bad", caller_saved=shared, callee_saved=shared)

    def test_empty_class_rejected(self):
        with pytest.raises(TargetError):
            MachineDescription(
                name="bad", caller_saved=(), callee_saved=register_range("r", 0, 2)
            )
        with pytest.raises(TargetError):
            MachineDescription(
                name="bad", caller_saved=register_range("r", 0, 2), callee_saved=()
            )

    def test_negative_cost_rejected(self):
        with pytest.raises(TargetError):
            MachineDescription(
                name="bad",
                caller_saved=register_range("r", 0, 2),
                callee_saved=register_range("s", 0, 2),
                save_cost=-1.0,
            )

    def test_replace_recomputes_derived_sets(self):
        machine = riscish_target()
        wider = machine.replace(callee_saved=register_range("r", 8, 20))
        assert wider.num_callee_saved == 12
        assert preg(19, "r") in wider.callee_saved_set
        # The original is untouched (frozen value semantics).
        assert riscish_target().num_callee_saved == 8

    def test_cost_helpers(self):
        micro = micro_target()
        assert micro.save_restore_cost == 4.0
        assert micro.frame_bytes(3) == 3 * micro.spill_slot_bytes

    def test_describe_mentions_the_partition(self, registered_machine):
        text = registered_machine.describe()
        assert str(registered_machine.num_caller_saved) in text
        assert str(registered_machine.num_callee_saved) in text


class TestFactories:
    def test_parisc_matches_the_papers_machine(self):
        machine = parisc_target()
        assert machine.num_callee_saved == 16
        assert machine.register("gr3") in machine.callee_saved_set
        assert machine.register("gr19") in machine.caller_saved_set
        assert machine.save_cost == machine.restore_cost == 1.0

    def test_riscish_is_an_even_sixteen(self):
        machine = riscish_target()
        assert machine.num_caller_saved == 8 and machine.num_callee_saved == 8

    def test_tiny_takes_custom_counts(self):
        machine = tiny_target(3, 1)
        assert machine.num_caller_saved == 3 and machine.num_callee_saved == 1

    def test_micro_is_an_expensive_eight_register_machine(self):
        machine = micro_target()
        assert machine.num_registers == 8
        assert machine.save_cost == 2.0 and machine.jump_cost == 2.0

    def test_wide_is_sixty_four_registers(self):
        machine = wide_target()
        assert machine.num_registers == 64
        assert machine.num_callee_saved == 32

    def test_factories_are_cached(self):
        assert parisc_target() is parisc_target()
        assert tiny_target(2, 2) is tiny_target(2, 2)


class TestRegistry:
    def test_at_least_four_targets_registered(self):
        assert len(available_targets()) >= 4

    def test_every_name_resolves(self):
        for name in available_targets():
            machine = get_target(name)
            assert isinstance(machine, MachineDescription)

    def test_default_target_is_the_papers_machine(self):
        assert resolve_target(None) == get_target(DEFAULT_TARGET) == parisc_target()

    def test_resolve_passes_instances_through(self):
        machine = micro_target()
        assert resolve_target(machine) is machine

    def test_unknown_name_is_an_error(self):
        with pytest.raises(TargetError):
            get_target("vax")
        with pytest.raises(TargetError):
            resolve_target(42)

    def test_registered_machine_names_round_trip(self, registered_machine):
        # machine.name must itself resolve, so logs/serialized measurements
        # that record it can re-resolve the same machine later.
        assert resolve_target(registered_machine.name) == registered_machine

    def test_register_custom_target_and_overwrite_guard(self):
        name = "__test_custom__"
        try:
            register_target(name, riscish_target)
            assert name in available_targets()
            with pytest.raises(TargetError):
                register_target(name, riscish_target)
            register_target(name, micro_target, overwrite=True)
            assert get_target(name) == micro_target()
        finally:
            from repro.target import registry

            registry._REGISTRY.pop(name, None)


class TestCostThreading:
    def test_cost_model_weights_come_from_the_target(self):
        example = paper_example()
        location = SpillLocation(
            example.register, SpillKind.SAVE, ("__entry__", example.function.entry.label)
        )
        unit = make_cost_model("execution_count")
        weighted = make_cost_model("execution_count", micro_target())
        base = unit.location_cost(example.function, example.profile, location)
        assert weighted.location_cost(example.function, example.profile, location) == (
            base * micro_target().save_cost
        )

    def test_overhead_weights_come_from_the_target(self):
        example = paper_example()
        placement = place_entry_exit(example.function, example.usage)
        unit = placement_dynamic_overhead(example.function, example.profile, placement)
        weighted = placement_dynamic_overhead(
            example.function, example.profile, placement, micro_target()
        )
        assert weighted.save_count == unit.save_count * micro_target().save_cost
        assert weighted.restore_count == unit.restore_count * micro_target().restore_cost

    def test_compile_procedure_accepts_target_names(self):
        procedure = generate_procedure(GeneratorConfig(name="byname", seed=7, num_segments=3))
        compiled = compile_procedure(procedure, machine="micro")
        assert compiled.allocation.machine == micro_target()

    def test_compile_many_amortizes_and_validates(self):
        procedures = [
            generate_procedure(GeneratorConfig(name=f"batch{i}", seed=i, num_segments=3))
            for i in range(3)
        ]
        records = compile_many(procedures, machine="riscish")
        # The name resolved to the registered machine, once for the batch.
        assert records == [
            compile_procedure(p, machine=riscish_target()).record for p in procedures
        ]
        with pytest.raises(ValueError):
            compile_many(procedures, techniques=("baseline", "mystery"))


class TestTargetParameterizedWorkloads:
    def test_config_for_target_scales_pressure(self):
        wide = config_for_target(wide_target())
        micro = config_for_target(micro_target())
        assert wide.num_accumulators > micro.num_accumulators
        assert wide.locals_per_call_region >= micro.locals_per_call_region

    def test_spec_scaling_keeps_the_reference_machine_unchanged(self):
        spec = SPEC_BENCHMARKS[0]
        assert scale_spec_for_target(spec, parisc_target()) == spec
        assert scale_spec_for_target(spec, None) == spec
        wide = scale_spec_for_target(spec, wide_target())
        assert wide.num_accumulators >= spec.num_accumulators


class TestAllTechniquesOnAllTargets:
    """Acceptance: all three techniques are verifier-clean on every target."""

    def test_compile_procedure_verifies_all_techniques(self, registered_machine):
        procedure = generate_procedure(
            config_for_target(
                registered_machine,
                GeneratorConfig(name="accept", seed=11, num_segments=5),
            )
        )
        # verify=True runs verify_placement on every produced placement.
        compiled = compile_procedure(procedure, machine=registered_machine, verify=True)
        assert set(compiled.outcomes) == set(TECHNIQUES)
        for technique in TECHNIQUES:
            assert compiled.callee_saved_overhead(technique) >= 0.0
