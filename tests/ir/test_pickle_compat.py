"""Pickle round trips of the slotted IR classes.

The IR hot classes (operand values, instructions, basic blocks) are
hand-slotted for the allocator hot path, and the compile pool pickles
procedures to send them to its workers, so every class must round-trip
through pickle unchanged.  :class:`~repro.ir.function.Function` drops its
derived CFG snapshot when pickled.  No persistent store holds IR (the
compile cache stores compile records), so there is no historical pickle
state to accept.
"""

import pickle

from repro.ir.basic_block import BasicBlock
from repro.ir.fingerprint import fingerprint_function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import (
    Immediate,
    Label,
    PhysicalRegister,
    StackSlot,
    VirtualRegister,
    preg,
    vreg,
)
from repro.workloads.programs import diamond_function, loop_function, paper_example


def test_values_round_trip():
    for value in (
        vreg(3),
        preg(5),
        VirtualRegister("v99"),
        PhysicalRegister("r2", 2),
        Immediate(42),
        StackSlot(1, "callee_save"),
        Label("body"),
    ):
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value
        assert type(clone) is type(value)


def test_instruction_round_trip():
    inst = Instruction(Opcode.ADD, defs=(vreg(0),), uses=(vreg(1), vreg(2)))
    clone = pickle.loads(pickle.dumps(inst))
    assert clone.opcode is Opcode.ADD
    assert clone.defs == inst.defs
    assert clone.uses == inst.uses
    assert clone.purpose == inst.purpose
    assert clone.uid == inst.uid


def test_basic_block_round_trip():
    block = BasicBlock("entry", [Instruction(Opcode.MOV, defs=(vreg(0),), uses=(vreg(1),))])
    clone = pickle.loads(pickle.dumps(block))
    assert clone.label == "entry"
    assert len(clone.instructions) == 1
    assert clone.instructions[0].opcode is Opcode.MOV


def test_function_round_trip_preserves_fingerprint_and_drops_cfg_cache():
    for function in (diamond_function(), loop_function(), paper_example().function):
        function.cfg()  # populate the derived snapshot
        payload = pickle.dumps(function)
        clone = pickle.loads(payload)
        # The snapshot is derived state: never pickled, rebuilt on demand.
        assert clone._cfg is None
        assert fingerprint_function(clone) == fingerprint_function(function)
        assert clone.cfg().entry_label == function.cfg().entry_label
        assert [b.label for b in clone.blocks] == [b.label for b in function.blocks]
