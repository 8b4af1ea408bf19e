"""The ``switch`` multiway terminator, end to end through the IR layer."""

from __future__ import annotations

import pytest

from repro.ir import instructions as ins
from repro.ir.builder import FunctionBuilder
from repro.ir.cfg import EdgeKind
from repro.ir.fingerprint import fingerprint_function
from repro.ir.instructions import Opcode
from repro.ir.parser import IRParseError, parse_function, parse_instruction
from repro.ir.passes import split_edge
from repro.ir.printer import format_instruction, print_function
from repro.ir.values import Label, vreg
from repro.ir.verifier import collect_function_errors, verify_function
from repro.profiling.interpreter import Interpreter


def build_switch_function(cases: int = 3) -> "FunctionBuilder":
    """``entry`` switches over ``cases`` case blocks that all jump to ``exit``."""

    builder = FunctionBuilder("sw")
    builder.block("entry")
    selector = builder.const(1)
    labels = [f"case{i}" for i in range(cases)]
    builder.switch(selector, labels)
    for position, label in enumerate(labels):
        builder.block(label)
        builder.const(position * 10)
        builder.jump("exit")
    builder.block("exit")
    builder.ret([])
    return builder


class TestSwitchInstruction:
    def test_constructor_and_classification(self):
        inst = ins.switch(vreg(0), [Label("a"), Label("b")])
        assert inst.opcode is Opcode.SWITCH
        assert inst.is_terminator()
        assert inst.is_switch()
        assert not inst.is_branch()
        assert inst.registers_read() == [vreg(0)]
        assert [t.name for t in inst.targets] == ["a", "b"]

    def test_requires_at_least_one_target(self):
        with pytest.raises(ValueError):
            ins.Instruction(Opcode.SWITCH, uses=(vreg(0),))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            ins.switch(vreg(0), [Label("a"), Label("a")])

    def test_copy_and_replace_registers_preserve_targets(self):
        inst = ins.switch(vreg(0), [Label("a"), Label("b")])
        clone = inst.copy()
        assert clone.targets == inst.targets
        renamed = inst.replace_registers({vreg(0): vreg(9)})
        assert renamed.registers_read() == [vreg(9)]
        assert renamed.targets == inst.targets

    def test_str_mentions_every_target(self):
        text = str(ins.switch(vreg(0), [Label("a"), Label("b")]))
        assert "@a" in text and "@b" in text


class TestSwitchCfg:
    def test_every_switch_edge_is_a_jump_edge(self):
        function = build_switch_function(3).build()
        edges = function.block_out_edges("entry")
        assert [e.dst for e in edges] == ["case0", "case1", "case2"]
        assert all(e.kind is EdgeKind.JUMP for e in edges)

    def test_switch_block_does_not_fall_through(self):
        function = build_switch_function(2).build()
        assert not function.block("entry").falls_through()

    def test_verifier_accepts_well_formed_switch(self):
        verify_function(build_switch_function(4).build(), require_single_exit=True)

    def test_verifier_rejects_unknown_target(self):
        builder = FunctionBuilder("bad")
        builder.block("entry")
        selector = builder.const(0)
        builder.emit(ins.switch(selector, [Label("nowhere"), Label("exit")]))
        builder.block("exit")
        builder.ret([])
        errors = collect_function_errors(builder.build())
        assert any("nowhere" in e for e in errors)

    def test_verifier_rejects_duplicate_targets(self):
        builder = FunctionBuilder("dup")
        builder.block("entry")
        selector = builder.const(0)
        builder.emit(
            ins.Instruction(
                Opcode.SWITCH, uses=(selector,), targets=(Label("exit"), Label("exit"))
            )
        )
        builder.block("exit")
        builder.ret([])
        errors = collect_function_errors(builder.build())
        assert any("duplicate" in e for e in errors)


class TestSwitchTextualForm:
    def test_format_and_parse_round_trip(self):
        inst = ins.switch(vreg(3), [Label("a"), Label("b"), Label("c")])
        text = format_instruction(inst)
        assert text == "switch v3, @a, @b, @c"
        parsed = parse_instruction(text)
        assert parsed.opcode is Opcode.SWITCH
        assert [t.name for t in parsed.targets] == ["a", "b", "c"]

    def test_function_round_trip_preserves_fingerprint(self):
        function = build_switch_function(3).build()
        text = print_function(function)
        reparsed = parse_function(text)
        assert print_function(reparsed) == text
        assert fingerprint_function(reparsed) == fingerprint_function(function)

    def test_parse_rejects_selector_only(self):
        with pytest.raises(IRParseError):
            parse_instruction("switch v0")

    def test_parse_rejects_non_label_target(self):
        with pytest.raises(IRParseError):
            parse_instruction("switch v0, v1, @a")


class TestSwitchInterpreter:
    def _run(self, selector_value: int):
        builder = FunctionBuilder("dispatch")
        selector = builder.new_vreg()
        builder.function.params = (selector,)
        builder.block("entry")
        builder.switch(selector, ["zero", "one", "dflt"])
        for label, value in (("zero", 100), ("one", 200), ("dflt", 300)):
            builder.block(label)
            result = builder.const(value)
            builder.ret([result])
        function = builder.build()
        return Interpreter().run(function, args=[selector_value])

    def test_selector_indexes_targets(self):
        assert self._run(0).return_values == (100,)
        assert self._run(1).return_values == (200,)

    def test_out_of_range_takes_last_target(self):
        assert self._run(2).return_values == (300,)
        assert self._run(99).return_values == (300,)
        assert self._run(-1).return_values == (300,)


class TestSwitchEdgeSplitting:
    def test_split_switch_edge_inserts_jump_block(self):
        # Two switches over shared cases make every switch edge critical.
        builder = FunctionBuilder("crit")
        builder.block("entry")
        selector = builder.const(0)
        builder.switch(selector, ["a", "b"])
        builder.block("other")
        selector2 = builder.const(1)
        builder.switch(selector2, ["a", "b"])
        builder.block("a")
        builder.jump("exit")
        builder.block("b")
        builder.jump("other_or_exit")
        builder.block("other_or_exit")
        builder.jump("exit")
        builder.block("exit")
        builder.ret([])
        function = builder.build()
        # Note: `other` is unreachable here; split_edge only needs the edge.
        edge = function.edge("entry", "a")
        original = function.block("entry").terminator
        new_block = split_edge(function, edge)
        term = function.block("entry").terminator
        assert [t.name for t in original.targets] == ["a", "b"]
        assert new_block.label in [t.name for t in term.targets]
        assert "a" not in [t.name for t in term.targets]
        assert new_block.terminator.opcode is Opcode.JMP
        assert new_block.terminator.target.name == "a"
        assert function.has_edge("entry", new_block.label)
        assert function.has_edge(new_block.label, "a")

    def test_split_edge_rejects_missing_switch_target(self):
        function = build_switch_function(2).build()
        from repro.ir.cfg import Edge

        with pytest.raises(ValueError):
            split_edge(function, Edge("entry", "exit", EdgeKind.JUMP))
