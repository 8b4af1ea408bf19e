"""Tests for live ranges, interference, colouring and the allocation driver."""

import pytest

from hypothesis import given, settings

from repro.analysis.liveness import compute_liveness
from repro.ir.builder import FunctionBuilder
from repro.ir.values import PhysicalRegister, VirtualRegister
from repro.ir.verifier import verify_function
from repro.profiling.interpreter import Interpreter, run_with_convention_check
from repro.regalloc.allocator import RegisterAllocationError, allocate_registers
from repro.regalloc.callee_saved import compute_callee_saved_usage
from repro.regalloc.coloring import color_graph
from repro.regalloc.interference import build_interference_graph
from repro.regalloc.live_ranges import compute_live_ranges
from repro.regalloc.rewriter import insert_spill_code, isolate_parameters, unassigned_virtual_registers
from repro.target.generic import tiny_target
from repro.target.parisc import parisc_target
from repro.workloads.programs import call_chain_function, diamond_function, loop_function

from tests.conftest import generated_procedures


def _call_crossing_function():
    """x is live across a call; y is not."""

    builder = FunctionBuilder("crossing")
    builder.block("entry")
    x = builder.const(5)
    y = builder.const(7)
    builder.add(y, 1)
    builder.call("helper")
    builder.add(x, 2)
    builder.block("exit")
    builder.ret()
    return builder.build(), x, y


class TestLiveRanges:
    def test_call_crossing_detection(self):
        function, x, y = _call_crossing_function()
        ranges = compute_live_ranges(function)
        assert ranges.ranges[x].crosses_call
        assert not ranges.ranges[y].crosses_call
        assert x in set(ranges.call_crossing_registers())

    def test_return_value_detection(self):
        builder = FunctionBuilder("retval")
        builder.block("entry")
        value = builder.const(3)
        builder.block("exit")
        builder.ret([value])
        ranges = compute_live_ranges(builder.build())
        assert ranges.ranges[value].used_by_return

    def test_parameter_flag_and_blocks(self):
        builder = FunctionBuilder("params")
        param = builder.new_vreg()
        builder.function.params = (param,)
        builder.block("entry")
        builder.add(param, 1)
        builder.block("exit")
        builder.ret()
        ranges = compute_live_ranges(builder.build())
        assert ranges.ranges[param].is_parameter
        assert "entry" in ranges.ranges[param].blocks

    def test_spill_cost_uses_profile_weights(self):
        function = loop_function()
        from repro.profiling.synthetic import profile_from_branch_probabilities

        profile = profile_from_branch_probabilities(function, invocations=10)
        ranges = compute_live_ranges(function, profile)
        counter = VirtualRegister("v0")
        unweighted = compute_live_ranges(function).ranges[counter].spill_cost
        weighted = ranges.ranges[counter].spill_cost
        assert weighted != unweighted


class TestInterference:
    def test_simultaneously_live_values_interfere(self):
        function, x, y = _call_crossing_function()
        graph = build_interference_graph(function, compute_liveness(function))
        assert graph.interferes(x, y)

    def test_move_related_values_do_not_interfere_through_the_move(self):
        builder = FunctionBuilder("moves")
        builder.block("entry")
        a = builder.const(1)
        b = builder.move(a)
        builder.add(b, 1)
        builder.add(a, 2)   # keep the source live across the move
        builder.block("exit")
        builder.ret()
        function = builder.build()
        graph = build_interference_graph(function, compute_liveness(function))
        assert not graph.interferes(a, b)
        assert b in graph.move_partners(a) or a in graph.move_partners(b)

    def test_degree_and_edge_count(self):
        function, x, y = _call_crossing_function()
        graph = build_interference_graph(function, compute_liveness(function))
        assert graph.degree(x) >= 1
        assert graph.num_edges() >= 1


class TestColoring:
    def test_call_crossing_ranges_get_callee_saved_registers(self):
        function, x, y = _call_crossing_function()
        machine = parisc_target()
        ranges = compute_live_ranges(function)
        graph = build_interference_graph(function, ranges.liveness)
        result = color_graph(graph, ranges, machine)
        assert result.is_complete
        assert machine.is_callee_saved(result.assignment[x])
        assert machine.is_caller_saved(result.assignment[y])

    def test_interfering_nodes_get_distinct_colours(self):
        function, x, y = _call_crossing_function()
        machine = parisc_target()
        ranges = compute_live_ranges(function)
        graph = build_interference_graph(function, ranges.liveness)
        result = color_graph(graph, ranges, machine)
        for node in graph.nodes:
            for neighbour in graph.neighbours(node):
                if node in result.assignment and neighbour in result.assignment:
                    assert result.assignment[node] != result.assignment[neighbour]

    def test_pressure_beyond_register_count_spills(self):
        builder = FunctionBuilder("pressure")
        builder.block("entry")
        values = [builder.const(i) for i in range(8)]
        builder.call("helper")
        for value in values:
            builder.add(value, 1)
        builder.block("exit")
        builder.ret()
        function = builder.build()
        machine = tiny_target(2, 2)
        ranges = compute_live_ranges(function)
        graph = build_interference_graph(function, ranges.liveness)
        result = color_graph(graph, ranges, machine)
        assert result.spilled  # 8 simultaneously-live call-crossing values, 2 callee-saved regs


class TestRewriter:
    def test_spill_temp_classification(self):
        from repro.regalloc.rewriter import is_spill_temp

        assert is_spill_temp(VirtualRegister("v3.s7"))
        assert is_spill_temp(VirtualRegister("v3.s7.s12"))
        assert is_spill_temp(VirtualRegister("v0.arg.s2"))
        # Dotted names from other passes are NOT allocator temporaries —
        # notably ensure_single_exit's retval registers for functions whose
        # name starts with "s".
        assert not is_spill_temp(VirtualRegister("retval.sum.0"))
        assert not is_spill_temp(VirtualRegister("v0.arg"))
        assert not is_spill_temp(VirtualRegister("v7"))
        assert not is_spill_temp(PhysicalRegister("s1", 1))

    def test_insert_spill_code_adds_loads_and_stores(self):
        function, x, _y = _call_crossing_function()
        slots = insert_spill_code(function, [x])
        assert x in slots
        purposes = [i.purpose for i in function.instructions() if i.is_memory()]
        assert purposes.count("spill") >= 2
        # The original register no longer appears; only its split temporaries.
        assert x not in {r for i in function.instructions() for r in i.registers()}

    def test_isolate_parameters_inserts_entry_moves(self):
        builder = FunctionBuilder("p")
        param = builder.new_vreg()
        builder.function.params = (param,)
        builder.block("entry")
        builder.call("helper")
        builder.add(param, 1)
        builder.block("exit")
        builder.ret()
        function = builder.build()
        mapping = isolate_parameters(function)
        assert param in mapping
        first = function.entry.instructions[0]
        assert first.opcode.value == "mov"
        assert first.uses == (param,)


class TestAllocator:
    def test_allocation_removes_all_virtual_registers(self):
        allocation = allocate_registers(call_chain_function(), parisc_target())
        assert unassigned_virtual_registers(
            allocation.function, allocation.function.instructions()
        ) == set()
        verify_function(allocation.function, require_single_exit=True)

    def test_allocation_reports_callee_saved_usage(self):
        allocation = allocate_registers(call_chain_function(), parisc_target())
        # The accumulator crosses every call, so at least one callee-saved
        # register is occupied somewhere.
        assert allocation.usage.used_registers() or allocation.num_spilled > 0

    def test_original_function_is_not_modified(self):
        function = call_chain_function()
        before = function.instruction_count()
        allocate_registers(function, parisc_target())
        assert function.instruction_count() == before

    def test_small_register_file_forces_spills_but_converges(self):
        allocation = allocate_registers(call_chain_function(), tiny_target(2, 1))
        assert allocation.rounds >= 1
        assert unassigned_virtual_registers(
            allocation.function, allocation.function.instructions()
        ) == set()

    def test_semantics_preserved_by_allocation(self):
        function = call_chain_function()
        machine = parisc_target()
        reference = Interpreter(machine=machine).run(function)
        allocation = allocate_registers(function, machine)
        allocated_result = run_with_convention_check(allocation.function, machine)
        assert allocated_result.return_values == reference.return_values

    def test_callee_saved_usage_map_matches_liveness(self):
        allocation = allocate_registers(call_chain_function(), parisc_target())
        usage = compute_callee_saved_usage(allocation.function, parisc_target())
        assert usage.occupancy == allocation.usage.occupancy

    @given(generated_procedures(max_segments=4))
    @settings(max_examples=15)
    def test_allocation_of_generated_procedures_is_complete_and_valid(self, procedure):
        machine = parisc_target()
        allocation = allocate_registers(procedure.function, machine, procedure.profile)
        assert unassigned_virtual_registers(
            allocation.function, allocation.function.instructions()
        ) == set()
        verify_function(allocation.function, require_single_exit=True)
        # Occupied blocks must be actual blocks of the function.
        labels = set(allocation.function.block_labels)
        for register in allocation.usage.used_registers():
            assert allocation.usage.blocks_for(register) <= labels


class TestEveryRegisteredTarget:
    """Allocation invariants hold on every registered machine description."""

    def test_allocation_completes_and_preserves_semantics(self, registered_machine):
        function = call_chain_function()
        reference = Interpreter(machine=registered_machine).run(function)
        allocation = allocate_registers(function, registered_machine)
        assert unassigned_virtual_registers(
            allocation.function, allocation.function.instructions()
        ) == set()
        verify_function(allocation.function, require_single_exit=True)
        result = run_with_convention_check(allocation.function, registered_machine)
        assert result.return_values == reference.return_values

    def test_assignment_respects_register_classes(self, registered_machine):
        allocation = allocate_registers(call_chain_function(), registered_machine)
        for phys in allocation.assignment.values():
            assert registered_machine.is_caller_saved(phys) != registered_machine.is_callee_saved(phys)

    @given(generated_procedures(max_segments=3))
    @settings(max_examples=8)
    def test_generated_allocation_valid_on_target(self, registered_machine, procedure):
        allocation = allocate_registers(
            procedure.function, registered_machine, procedure.profile
        )
        assert unassigned_virtual_registers(
            allocation.function, allocation.function.instructions()
        ) == set()
        verify_function(allocation.function, require_single_exit=True)
        for register in allocation.usage.used_registers():
            assert registered_machine.is_callee_saved(register)
