"""Tests for the IR verifier and the utility transformation passes."""

import pytest

from hypothesis import given

from repro.ir import instructions as ins
from repro.ir.basic_block import BasicBlock
from repro.ir.builder import FunctionBuilder
from repro.ir.cfg import EdgeKind
from repro.ir.dot import cfg_to_dot, pst_to_dot
from repro.ir.function import Function
from repro.ir.passes import (
    count_edge_kinds,
    ensure_single_exit,
    remove_unreachable_blocks,
    split_edge,
    straighten_layout,
)
from repro.ir.values import Label, vreg
from repro.ir.verifier import IRVerificationError, collect_function_errors, verify_function
from repro.analysis.pst import build_pst
from repro.profiling.interpreter import Interpreter
from repro.workloads.programs import diamond_function, loop_function, paper_example

from tests.conftest import generated_procedures


def _multi_exit_function():
    builder = FunctionBuilder("multi")
    cond = builder.new_vreg()
    builder.block("entry")
    builder.const(1, cond)
    builder.branch(cond, "second")
    builder.block("first")
    value = builder.const(10)
    builder.ret([value])
    builder.block("second")
    value2 = builder.const(20)
    builder.ret([value2])
    return builder.build()


class TestVerifier:
    def test_valid_functions_pass(self):
        verify_function(diamond_function())
        verify_function(loop_function())
        verify_function(paper_example().function, require_single_exit=True)

    def test_missing_exit_detected(self):
        function = Function("f")
        function.add_block(BasicBlock("a", [ins.jump(Label("a"))]))
        errors = collect_function_errors(function)
        assert any("exit" in e for e in errors)

    def test_fallthrough_past_last_block_detected(self):
        function = Function("f")
        function.add_block(BasicBlock("a", [ins.nop()]))
        errors = collect_function_errors(function)
        assert any("falls through" in e for e in errors)

    def test_unknown_branch_target_detected(self):
        function = Function("f")
        function.add_block(BasicBlock("a", [ins.jump(Label("missing"))]))
        with pytest.raises(IRVerificationError):
            verify_function(function)

    def test_unreachable_block_detected(self):
        function = Function("f")
        function.add_block(BasicBlock("a", [ins.ret()]))
        function.add_block(BasicBlock("orphan", [ins.ret()]))
        errors = collect_function_errors(function)
        assert any("unreachable" in e for e in errors)

    def test_duplicate_edge_detected(self):
        builder = FunctionBuilder("f")
        cond = builder.new_vreg()
        builder.block("a")
        builder.const(1, cond)
        builder.branch(cond, "b")
        builder.block("b")
        builder.ret()
        errors = collect_function_errors(builder.build())
        assert any("duplicate edge" in e for e in errors)

    def test_multiple_exits_flagged_only_when_required(self):
        function = _multi_exit_function()
        assert not any("exit blocks" in e for e in collect_function_errors(function))
        errors = collect_function_errors(function, require_single_exit=True)
        assert any("exit blocks" in e for e in errors)

    @given(generated_procedures(max_segments=5))
    def test_generated_procedures_always_verify(self, procedure):
        verify_function(procedure.function, require_single_exit=True)


class TestPasses:
    def test_ensure_single_exit_merges_exits(self):
        function = _multi_exit_function()
        ensure_single_exit(function)
        verify_function(function, require_single_exit=True)
        assert function.has_single_exit()

    def test_ensure_single_exit_preserves_return_values(self):
        before = Interpreter().run(_multi_exit_function())
        function = _multi_exit_function()
        ensure_single_exit(function)
        after = Interpreter().run(function)
        assert before.return_values == after.return_values

    def test_ensure_single_exit_is_idempotent(self):
        function = _multi_exit_function()
        ensure_single_exit(function)
        blocks_before = len(function)
        ensure_single_exit(function)
        assert len(function) == blocks_before

    def test_remove_unreachable_blocks(self):
        function = Function("f")
        function.add_block(BasicBlock("a", [ins.ret()]))
        function.add_block(BasicBlock("dead", [ins.jump(Label("a"))]))
        assert remove_unreachable_blocks(function) == 1
        assert "dead" not in function

    def test_split_jump_edge_inserts_jump_block(self):
        function = diamond_function()
        edge = function.edge("entry", "then")
        assert edge.kind is EdgeKind.JUMP
        new_block = split_edge(function, edge)
        verify_function(function)
        assert function.has_edge("entry", new_block.label)
        assert function.has_edge(new_block.label, "then")
        assert new_block.terminator.is_jump()

    def test_split_fallthrough_edge_requires_no_jump(self):
        function = diamond_function()
        edge = function.edge("entry", "else_")
        new_block = split_edge(function, edge)
        verify_function(function)
        assert new_block.terminator is None
        assert function.has_edge("entry", new_block.label)
        assert function.has_edge(new_block.label, "else_")

    def test_split_edge_leaves_the_shared_terminator_alone(self):
        """A clone shares its terminators with the original; splitting an
        edge of the clone must replace, not edit, the terminator."""

        function = diamond_function()
        text = str(function)
        clone = function.clone()
        term = clone.block("entry").terminator
        new_block = split_edge(clone, clone.edge("entry", "then"))
        assert clone.block("entry").terminator is not term
        assert clone.block("entry").terminator.target.name == new_block.label
        assert term.target.name == "then"
        assert str(function) == text

    def test_split_edge_preserves_execution_result(self):
        reference = Interpreter().run(loop_function())
        function = loop_function()
        split_edge(function, function.edge("body", "header"))
        rerun = Interpreter().run(function)
        assert rerun.return_values == reference.return_values

    def test_straighten_layout_removes_redundant_jumps(self):
        builder = FunctionBuilder("f")
        builder.block("a")
        builder.jump("b")
        builder.block("b")
        builder.ret()
        function = builder.build()
        straighten_layout(function)
        assert function.block("a").terminator is None
        verify_function(function)

    def test_count_edge_kinds(self):
        counts = count_edge_kinds(diamond_function())
        assert counts[EdgeKind.JUMP] == 2
        assert counts[EdgeKind.FALLTHROUGH] == 2


class TestDotExport:
    def test_cfg_dot_mentions_every_block_and_edge(self):
        example = paper_example()
        text = cfg_to_dot(
            example.function,
            edge_counts={k: int(v) for k, v in example.profile.edge_counts.items()},
            highlight_blocks=example.occupied_blocks,
        )
        for label in example.function.block_labels:
            assert f'"{label}"' in text
        assert "gray80" in text  # occupied blocks are shaded
        assert 'label="70"' in text  # edge counts appear

    def test_pst_dot_contains_regions(self):
        example = paper_example()
        text = pst_to_dot(build_pst(example.function))
        assert "procedure 0" in text
        assert text.count("->") >= 4
