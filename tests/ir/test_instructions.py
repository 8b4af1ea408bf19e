"""Tests for IR instructions and their convenience constructors."""

import pytest

from repro.ir import instructions as ins
from repro.ir.instructions import Instruction, Opcode, OPCODE_INFO
from repro.ir.values import Immediate, Label, StackSlot, vreg


class TestConstructors:
    def test_binary_records_defs_and_uses(self):
        inst = ins.binary(Opcode.ADD, vreg(2), vreg(0), vreg(1))
        assert inst.registers_written() == [vreg(2)]
        assert inst.registers_read() == [vreg(0), vreg(1)]

    def test_binary_with_immediate_operand(self):
        inst = ins.binary(Opcode.MUL, vreg(1), vreg(0), Immediate(3))
        assert inst.registers_read() == [vreg(0)]
        assert Immediate(3) in inst.uses

    def test_move_and_load_immediate(self):
        assert ins.move(vreg(1), vreg(0)).opcode is Opcode.MOV
        li = ins.load_immediate(vreg(1), 42)
        assert li.uses == (Immediate(42),)

    def test_branch_carries_taken_target(self):
        inst = ins.branch(vreg(0), Label("then"))
        assert inst.is_branch()
        assert inst.target == Label("then")

    def test_jump_is_terminator(self):
        assert ins.jump(Label("x")).is_terminator()

    def test_return_with_and_without_values(self):
        assert ins.ret().uses == ()
        assert ins.ret([vreg(3)]).uses == (vreg(3),)

    def test_call_defs_and_uses(self):
        inst = ins.call("helper", args=[vreg(0)], returns=[vreg(1)])
        assert inst.is_call()
        assert inst.registers_written() == [vreg(1)]
        assert inst.registers_read() == [vreg(0)]
        assert inst.target == Label("helper")

    def test_spill_and_callee_save_purposes(self):
        slot = StackSlot(0)
        assert ins.save_spill(vreg(0), slot).purpose == "spill"
        assert ins.restore_spill(vreg(0), slot).purpose == "spill"
        assert ins.callee_save(vreg(0), slot).purpose == "callee_save"
        assert ins.callee_restore(vreg(0), slot).purpose == "callee_restore"

    def test_invalid_memory_purpose_rejected(self):
        with pytest.raises(ValueError):
            ins.load(vreg(0), StackSlot(0), purpose="bogus")


class TestClassification:
    def test_terminators(self):
        assert ins.ret().is_terminator()
        assert ins.jump(Label("a")).is_terminator()
        assert ins.branch(vreg(0), Label("a")).is_terminator()
        assert not ins.nop().is_terminator()
        assert not ins.call("f").is_terminator()

    def test_overhead_classification(self):
        slot = StackSlot(1)
        assert ins.callee_save(vreg(0), slot).is_overhead()
        assert ins.callee_save(vreg(0), slot).is_spill_code()
        assert not ins.store(vreg(0), slot).is_overhead()

    def test_opcode_info_table_is_complete(self):
        for opcode in Opcode:
            assert opcode in OPCODE_INFO

    def test_every_instruction_has_unique_uid(self):
        a, b = ins.nop(), ins.nop()
        assert a.uid != b.uid


class TestRegisterRewriting:
    def test_replace_registers_substitutes_defs_and_uses(self):
        inst = ins.binary(Opcode.SUB, vreg(2), vreg(0), vreg(1))
        rewritten = inst.replace_registers({vreg(0): vreg(9), vreg(2): vreg(8)})
        assert rewritten.registers_written() == [vreg(8)]
        assert rewritten.registers_read() == [vreg(9), vreg(1)]
        # The original instruction is untouched.
        assert inst.registers_written() == [vreg(2)]

    def test_replace_registers_keeps_non_register_operands(self):
        inst = ins.store(vreg(0), StackSlot(4))
        rewritten = inst.replace_registers({vreg(0): vreg(5)})
        assert rewritten.stack_slots() == [StackSlot(4)]

    def test_replace_registers_keeps_opcode_purpose_and_targets(self):
        spill = ins.restore_spill(vreg(0), StackSlot(2))
        rewritten = spill.replace_registers({vreg(0): vreg(7)})
        assert type(rewritten) is Instruction
        assert (rewritten.opcode, rewritten.purpose) == (Opcode.LOAD, "spill")
        assert rewritten.uid != spill.uid
        assert str(rewritten) == str(spill).replace("v0", "v7")
        dispatch = ins.switch(vreg(1), [Label("a"), Label("b")])
        rewritten = dispatch.replace_registers({vreg(1): vreg(3)})
        assert rewritten.targets == dispatch.targets
        assert rewritten.uses == (vreg(3),)

    def test_retarget_replaces_only_the_named_target(self):
        branch = ins.branch(vreg(0), Label("a"))
        moved = branch.retarget("a", Label("split1"))
        assert moved is not branch
        assert (moved.opcode, moved.uses, moved.target) == (Opcode.BR, branch.uses, Label("split1"))
        assert branch.target == Label("a")
        dispatch = ins.switch(vreg(1), [Label("a"), Label("b"), Label("c")])
        moved = dispatch.retarget("b", Label("split2"))
        assert [t.name for t in moved.targets] == ["a", "split2", "c"]
        assert [t.name for t in dispatch.targets] == ["a", "b", "c"]

    def test_copy_is_independent(self):
        inst = ins.move(vreg(1), vreg(0))
        clone = inst.copy()
        assert clone.opcode is inst.opcode
        assert clone.uid != inst.uid


class TestRendering:
    def test_str_contains_mnemonic_and_operands(self):
        text = str(ins.binary(Opcode.ADD, vreg(2), vreg(0), vreg(1)))
        assert text.startswith("add")
        assert "v2" in text and "v0" in text and "v1" in text

    def test_str_marks_overhead_purpose(self):
        assert "callee_save" in str(ins.callee_save(vreg(0), StackSlot(0)))
