"""Spill-code insertion and the final virtual-to-physical rewrite."""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Set

from repro.analysis.bitset import BitLiveness
from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister, Register, StackSlot, VirtualRegister


def isolate_parameters(function: Function) -> Dict[Register, Register]:
    """Copy incoming parameters into fresh virtual registers at the entry.

    Arguments arrive in caller-saved registers; a parameter whose live range
    crosses a call therefore cannot simply *be* a callee-saved register — the
    value has to be moved into one after the prologue.  Splitting every
    parameter at the entry block gives the colouring that freedom (the move
    coalesces away when the parameter does not need it).

    Returns the mapping from the original parameter register to its clone.
    """

    from repro.ir.instructions import move

    mapping: Dict[Register, Register] = {}
    for index, param in enumerate(function.params):
        if not isinstance(param, VirtualRegister):
            continue
        clone = VirtualRegister(f"{param.name}.arg")
        mapping[param] = clone
    if not mapping:
        return mapping

    for block in function.blocks:
        block.instructions = [
            inst.replace_registers(mapping)
            if any(r in mapping for r in inst.registers())
            else inst
            for inst in block.instructions
        ]
    entry = function.entry
    for offset, (param, clone) in enumerate(mapping.items()):
        entry.instructions.insert(offset, move(clone, param))
    return mapping


def demote_overflow_parameters(function: Function, machine) -> Dict[Register, StackSlot]:
    """Pass parameters beyond the machine's register capacity on the stack.

    Every virtual parameter is live simultaneously on entry, so each needs
    its own caller-saved register — a function with more parameters than the
    machine has caller-saved registers is unallocatable in registers alone.
    Real conventions pass the overflow on the stack: this rewrite gives each
    parameter past the capacity a dedicated ``arg`` stack slot, turns its
    entry copy (inserted by :func:`isolate_parameters`) into a load from
    that slot, and records the slot in ``function.params`` so the
    interpreter binds the argument to stack memory.

    Must run after :func:`isolate_parameters`.  Returns the mapping from
    demoted parameter registers to their slots.
    """

    capacity = len(machine.caller_saved)
    register_params = [
        p for p in function.params if isinstance(p, VirtualRegister)
    ]
    overflow = set(register_params[capacity:])
    if not overflow:
        return {}

    from repro.ir.instructions import Opcode, load

    slots: Dict[Register, StackSlot] = {}
    entry = function.entry
    rewritten: List = []
    for inst in entry.instructions:
        if (
            inst.opcode is Opcode.MOV
            and inst.uses
            and inst.uses[0] in overflow
        ):
            param = inst.uses[0]
            slot = function.allocate_stack_slot("arg")
            slots[param] = slot
            rewritten.append(load(inst.defs[0], slot, purpose="arg"))
        else:
            rewritten.append(inst)
    entry.instructions = rewritten
    function.params = tuple(
        slots.get(param, param) for param in function.params
    )
    return slots


#: Suffix pattern of the names :func:`insert_spill_code` gives its
#: reload/store temporaries: ``<base>.s<counter>`` (``v3.s7``, and
#: ``v3.s7.s12`` after a re-split).  A temporary always *ends* with
#: ``.s<digits>``; matching anchored at the end keeps other dotted names
#: (``v0.arg`` parameter clones, ``retval.<function>.<n>`` registers from
#: ``ensure_single_exit``) out of the classification.
_SPILL_TEMP_SUFFIX = re.compile(r"\.s\d+$")


def is_spill_temp(register: Register) -> bool:
    """Is ``register`` a temporary created by :func:`insert_spill_code`?

    Such ranges span a single instruction and cannot be usefully spilled
    again — re-spilling one just recreates an identical temporary, which is
    the classic Chaitin-allocator livelock.  The colouring gives them
    infinite spill cost so that pressure is always relieved by splitting an
    original live-through range instead.
    """

    return (
        isinstance(register, VirtualRegister)
        and _SPILL_TEMP_SUFFIX.search(register.name) is not None
    )


def insert_spill_code(function: Function, spilled: Iterable[Register]) -> Dict[Register, StackSlot]:
    """Spill the given virtual registers to stack slots.

    Every use is preceded by a reload into a fresh short-lived virtual
    register and every definition is followed by a store, the classic
    "spill everywhere" strategy of Chaitin-style allocators.  The inserted
    loads/stores carry the ``spill`` purpose so the overhead accounting can
    attribute them to the register allocator.
    """

    spilled = [r for r in spilled]
    if not spilled:
        return {}
    slots: Dict[Register, StackSlot] = {
        register: function.allocate_stack_slot("spill") for register in spilled
    }
    spill_set: Set[Register] = set(spilled)
    counter = 0

    for block in function.blocks:
        new_instructions = []
        for inst in block.instructions:
            reads = [r for r in inst.registers_read() if r in spill_set]
            writes = [r for r in inst.registers_written() if r in spill_set]
            mapping: Dict[Register, Register] = {}
            for register in dict.fromkeys(reads + writes):
                counter += 1
                mapping[register] = VirtualRegister(f"{register.name}.s{counter}")
            for register in dict.fromkeys(reads):
                new_instructions.append(
                    ins.load(mapping[register], slots[register], purpose="spill")
                )
            new_instructions.append(inst.replace_registers(mapping) if mapping else inst)
            for register in dict.fromkeys(writes):
                new_instructions.append(
                    ins.store(mapping[register], slots[register], purpose="spill")
                )
        block.instructions = new_instructions
    return slots


def apply_assignment(
    function: Function, assignment: Dict[Register, PhysicalRegister], bits: BitLiveness
) -> List[ins.Instruction]:
    """Replace every assigned virtual register with its physical register.

    ``bits`` is the liveness solution the assignment was coloured from; only
    instructions whose masks mention a virtual register are rewritten, and
    those are returned.
    """

    virtual = bits.index.virtual_mask
    rewritten: List[ins.Instruction] = []
    for block in function.blocks:
        instructions = list(block.instructions)
        for position, (write_mask, read_mask) in enumerate(
            bits.instruction_masks(function, block.label)
        ):
            if (write_mask | read_mask) & virtual:
                inst = instructions[position].replace_registers(assignment)
                instructions[position] = inst
                rewritten.append(inst)
        block.instructions = instructions
    return rewritten


def unassigned_virtual_registers(
    function: Function, instructions: Iterable[ins.Instruction]
) -> Set[VirtualRegister]:
    """Virtual registers still among ``function``'s parameters or the operands
    of ``instructions`` after the rewrite."""

    found = {r for r in function.params if isinstance(r, VirtualRegister)}
    found.update(
        r for inst in instructions for r in inst.defs + inst.uses if isinstance(r, VirtualRegister)
    )
    return found
