"""Tests for basic blocks, functions, modules and CFG derivation."""

import pytest

from repro.ir import instructions as ins
from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import EdgeKind
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function, reachable_blocks
from repro.ir.module import Module
from repro.ir.values import Label, vreg
from repro.ir.builder import FunctionBuilder
from repro.workloads.programs import diamond_function, loop_function, paper_example


class TestBasicBlock:
    def test_terminator_detection(self):
        block = BasicBlock("b", [ins.nop(), ins.ret()])
        assert block.has_terminator()
        assert block.terminator.is_return()

    def test_falls_through_without_terminator(self):
        assert BasicBlock("b", [ins.nop()]).falls_through()

    def test_conditional_branch_falls_through(self):
        block = BasicBlock("b", [ins.branch(vreg(0), Label("t"))])
        assert block.falls_through()

    def test_jump_does_not_fall_through(self):
        block = BasicBlock("b", [ins.jump(Label("t"))])
        assert not block.falls_through()

    def test_append_keeps_terminator_last(self):
        block = BasicBlock("b", [ins.ret()])
        block.append(ins.nop())
        assert block.instructions[-1].is_return()

    def test_insert_before_terminator(self):
        block = BasicBlock("b", [ins.nop(), ins.ret()])
        block.insert_before_terminator(ins.nop())
        assert len(block) == 3
        assert block.instructions[-1].is_return()

    def test_prepend(self):
        block = BasicBlock("b", [ins.ret()])
        marker = ins.nop()
        block.prepend(marker)
        assert block.instructions[0] is marker

    def test_body_excludes_terminator(self):
        block = BasicBlock("b", [ins.nop(), ins.ret()])
        assert len(block.body()) == 1

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            BasicBlock("")


class TestFunctionCfg:
    def test_diamond_edges_and_kinds(self):
        function = diamond_function()
        edges = {e.key: e.kind for e in function.edges()}
        assert edges[("entry", "then")] is EdgeKind.JUMP
        assert edges[("entry", "else_")] is EdgeKind.FALLTHROUGH
        assert edges[("else_", "merge")] is EdgeKind.JUMP
        assert edges[("then", "merge")] is EdgeKind.FALLTHROUGH

    def test_successors_and_predecessors(self):
        function = diamond_function()
        assert set(function.successors("entry")) == {"then", "else_"}
        assert set(function.predecessors("merge")) == {"then", "else_"}

    def test_entry_and_exit(self):
        function = diamond_function()
        assert function.entry.label == "entry"
        assert function.exit.label == "merge"
        assert function.has_single_exit()

    def test_virtual_edges(self):
        function = diamond_function()
        assert function.entry_edge().key == (ENTRY_SENTINEL, "entry")
        assert function.exit_edge().key == ("merge", EXIT_SENTINEL)

    def test_loop_back_edge_present(self):
        function = loop_function()
        assert function.has_edge("body", "header")

    def test_edge_lookup_raises_for_missing_edge(self):
        function = diamond_function()
        with pytest.raises(KeyError):
            function.edge("then", "entry")

    def test_duplicate_block_label_rejected(self):
        function = Function("f")
        function.add_block(BasicBlock("a", [ins.ret()]))
        with pytest.raises(ValueError):
            function.add_block(BasicBlock("a"))

    def test_new_label_avoids_collisions(self):
        function = Function("f")
        function.add_block(BasicBlock("bb1", [ins.ret()]))
        assert function.new_label("bb") != "bb1"

    def test_reachable_blocks(self):
        function = diamond_function()
        assert reachable_blocks(function) == set(function.block_labels)

    def test_clone_copies_lists_and_shares_instructions(self):
        function = diamond_function()
        text = str(function)
        clone = function.clone()
        for original, copied in zip(function.blocks, clone.blocks):
            assert copied is not original
            assert copied.instructions is not original.instructions
            assert all(a is b for a, b in zip(original.instructions, copied.instructions))
        clone.block("entry").instructions.pop()
        assert len(function.block("entry")) != len(clone.block("entry"))
        assert str(function) == text

    def test_instruction_count(self):
        function = diamond_function()
        assert function.instruction_count() == sum(len(b) for b in function.blocks)

    def test_stack_slot_allocation_is_monotonic(self):
        function = diamond_function()
        first = function.allocate_stack_slot()
        second = function.allocate_stack_slot("callee_save")
        assert second.index == first.index + 1

    def test_paper_example_has_sixteen_blocks(self):
        example = paper_example()
        assert len(example.function) == 16
        assert set(example.function.block_labels) == set("ABCDEFGHIJKLMNOP")


class TestModule:
    def test_add_and_lookup(self):
        module = Module("m")
        module.add_function(diamond_function())
        assert module.has_function("diamond")
        assert module.function("diamond").name == "diamond"
        assert "diamond" in module

    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function(diamond_function())
        with pytest.raises(ValueError):
            module.add_function(diamond_function())

    def test_external_callees(self):
        module = Module("m")
        module.add_function(loop_function())
        assert module.external_callees() == ["callee"]

    def test_clone_copies_functions(self):
        module = Module("m")
        module.add_function(diamond_function())
        clone = module.clone()
        assert clone.function("diamond") is not module.function("diamond")
        assert clone.instruction_count() == module.instruction_count()


class TestBuilder:
    def test_builder_tracks_current_block(self):
        builder = FunctionBuilder("f")
        builder.block("entry")
        builder.const(1)
        builder.block("exit")
        builder.ret()
        function = builder.build()
        assert [b.label for b in function.blocks] == ["entry", "exit"]

    def test_builder_new_vregs_are_unique(self):
        builder = FunctionBuilder("f")
        assert len(set(builder.new_vregs(10))) == 10

    def test_builder_requires_a_block_before_emitting(self):
        builder = FunctionBuilder("f")
        with pytest.raises(ValueError):
            builder.const(1)

    def test_builder_switch_to_existing_block(self):
        builder = FunctionBuilder("f")
        builder.block("a")
        builder.block("b")
        builder.switch_to("a")
        builder.nop()
        assert len(builder.build().block("a")) == 1
