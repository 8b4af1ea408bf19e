"""Round-trip tests for the textual IR parser and printer."""

import pytest

from hypothesis import given

from repro.ir.parser import IRParseError, parse_function, parse_instruction, parse_module
from repro.ir.printer import format_instruction, print_function, print_module
from repro.ir import instructions as ins
from repro.ir.instructions import Opcode
from repro.ir.module import Module
from repro.ir.values import Immediate, Label, PhysicalRegister, StackSlot, VirtualRegister, vreg
from repro.regalloc.allocator import allocate_registers
from repro.target.registry import get_target
from repro.workloads.catalog import get_catalog
from repro.workloads.programs import call_chain_function, diamond_function, loop_function, paper_example

from tests.conftest import generated_procedures


SAMPLE = """
func sample(v0, v1) {
entry:
  li v2, #5
  add v3, v0, v2
  cmplt v4, v3, v1
  br v4, @greater
less:
  call @callee(v3) -> (v5)
  store v5, [sp+0]
  jmp @done
greater:
  load v6, [sp+0] !spill
  sub v3, v6, v1
done:
  ret v3
}
"""


class TestParser:
    def test_parse_sample_function(self):
        function = parse_function(SAMPLE)
        assert function.name == "sample"
        assert [p.name for p in function.params] == ["v0", "v1"]
        assert [b.label for b in function.blocks] == ["entry", "less", "greater", "done"]

    def test_parsed_call_has_defs_and_target(self):
        function = parse_function(SAMPLE)
        call = function.block("less").instructions[0]
        assert call.is_call()
        assert call.target == Label("callee")
        assert call.registers_written() == [VirtualRegister("v5")]

    def test_parsed_purpose_tag(self):
        function = parse_function(SAMPLE)
        load = function.block("greater").instructions[0]
        assert load.purpose == "spill"

    def test_parse_instruction_errors(self):
        with pytest.raises(IRParseError):
            parse_instruction("frobnicate v1, v2")
        with pytest.raises(IRParseError):
            parse_instruction("add v1, v2")      # missing operand
        with pytest.raises(IRParseError):
            parse_instruction("br v1")           # missing target

    def test_statement_outside_function_rejected(self):
        with pytest.raises(IRParseError):
            parse_module("entry:\n  nop\n")

    def test_unterminated_function_rejected(self):
        with pytest.raises(IRParseError):
            parse_module("func f() {\nentry:\n  ret\n")

    def test_instruction_before_block_label_rejected(self):
        with pytest.raises(IRParseError):
            parse_module("func f() {\n  nop\n}\n")

    def test_physical_registers_parse_with_index(self):
        inst = parse_instruction("add gr5, gr3, gr4")
        assert inst.registers_written() == [PhysicalRegister("gr5", 5)]

    def test_comments_are_ignored(self):
        module = parse_module("// a comment\nfunc f() {\nentry:\n  nop\n  ret ; trailing\n}\n")
        assert module.function("f").instruction_count() == 2

    def test_parse_function_rejects_multiple_functions(self):
        with pytest.raises(IRParseError):
            parse_function(SAMPLE + "\nfunc g() {\nentry:\n  ret\n}\n")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "function",
        [diamond_function(), loop_function(), call_chain_function(), paper_example().function],
        ids=["diamond", "loop", "call_chain", "paper_example"],
    )
    def test_print_parse_print_is_stable(self, function):
        text = print_function(function)
        reparsed = parse_function(text)
        assert print_function(reparsed) == text

    def test_module_round_trip(self):
        module = Module("m")
        module.add_function(diamond_function())
        module.add_function(loop_function())
        text = print_module(module)
        assert print_module(parse_module(text)) == text

    @given(generated_procedures(max_segments=4))
    def test_generated_procedures_round_trip(self, procedure):
        text = print_function(procedure.function)
        assert print_function(parse_function(text)) == text

    @pytest.mark.parametrize("name", ["clamp1_MD_RED", "maxof1_MD_RED"])
    def test_allocated_function_with_a_stack_parameter_round_trips(self, name):
        """On ``tiny`` the allocator passes a parameter of these in a stack slot."""

        machine = get_target("tiny")
        procedure = get_catalog().resolve(name).build(0, 0, machine)
        function = allocate_registers(procedure.function, machine, procedure.profile).function
        assert StackSlot(0, "arg") in function.params
        text = print_function(function)
        reparsed = parse_function(text)
        assert print_function(reparsed) == text
        assert reparsed.params == function.params
        assert reparsed.next_stack_slot == function.next_stack_slot


class TestFormatting:
    def test_format_call_without_returns(self):
        assert format_instruction(ins.call("f", args=[vreg(0)])) == "call @f(v0)"

    def test_format_ret_with_value(self):
        assert format_instruction(ins.ret([vreg(1)])) == "ret v1"

    def test_format_store_with_purpose(self):
        text = format_instruction(ins.callee_save(vreg(0), StackSlot(3)))
        assert text == "store v0, [sp+3] !callee_save"

    def test_format_branch(self):
        assert format_instruction(ins.branch(vreg(2), Label("loop"))) == "br v2, @loop"
