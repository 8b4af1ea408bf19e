"""Textual rendering of the IR.

The format is designed to round-trip through :mod:`repro.ir.parser`::

    func example(v0) {
    entry:
      li v1, #10
      cmplt v2, v0, v1
      br v2, @then
    merge:
      call @helper(v0) -> (v3)
      ret v3
    then:
      add v3, v0, v1
      jmp @merge
    }
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.module import Module
from repro.ir.values import Immediate, Register, StackSlot


def _format_operand(op) -> str:
    if isinstance(op, Register):
        return op.name
    if isinstance(op, Immediate):
        return f"#{op.value}"
    if isinstance(op, StackSlot):
        return f"[sp+{op.index}]"
    return str(op)


def format_instruction(inst: Instruction) -> str:
    """Render one instruction in the canonical textual form."""

    op = inst.opcode
    if op is Opcode.CALL:
        args = ", ".join(_format_operand(u) for u in inst.uses)
        text = f"call @{inst.target.name}({args})"
        if inst.defs:
            rets = ", ".join(_format_operand(d) for d in inst.defs)
            text += f" -> ({rets})"
        return text
    if op is Opcode.BR:
        return f"br {_format_operand(inst.uses[0])}, @{inst.target.name}"
    if op is Opcode.JMP:
        return f"jmp @{inst.target.name}"
    if op is Opcode.SWITCH:
        cases = ", ".join(f"@{t.name}" for t in inst.targets)
        return f"switch {_format_operand(inst.uses[0])}, {cases}"
    if op is Opcode.RET:
        if inst.uses:
            return "ret " + ", ".join(_format_operand(u) for u in inst.uses)
        return "ret"
    if op is Opcode.NOP:
        return "nop"

    operands: List[str] = [_format_operand(d) for d in inst.defs]
    operands.extend(_format_operand(u) for u in inst.uses)
    text = op.value
    if operands:
        text += " " + ", ".join(operands)
    if op in (Opcode.LOAD, Opcode.STORE) and inst.purpose != "program":
        text += f" !{inst.purpose}"
    return text


def print_function(function: Function) -> str:
    """Render a function, blocks in layout order."""

    params = ", ".join(_format_operand(p) for p in function.params)
    lines = [f"func {function.name}({params}) {{"]
    for block in function.blocks:
        lines.append(f"{block.label}:")
        for inst in block.instructions:
            lines.append(f"  {format_instruction(inst)}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render every function in a module separated by blank lines."""

    return "\n\n".join(print_function(f) for f in module.functions) + "\n"
