"""Parser for the textual IR form produced by :mod:`repro.ir.printer`.

The grammar is line oriented::

    module    := function*
    function  := "func" NAME "(" params? ")" "{" block* "}"
    block     := LABEL ":" instruction*
    instruction lines are mnemonics followed by comma-separated operands.

Operands: registers (``v3``, ``gr5``), immediates (``#-7``), stack slots
(``[sp+2]``) and labels (``@loop``).  A parameter is a register or, once
the allocator has passed it on the stack, an ``arg`` stack slot.  Calls use
``call @callee(args) -> (rets)``; multiway branches use
``switch v0, @case0, @case1, @default``.  A trailing ``!purpose`` tags
overhead loads/stores.  ``#`` and ``;`` start comments outside of immediates.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.ir import instructions as ins
from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, OPCODE_INFO
from repro.ir.module import Module
from repro.ir.values import (
    Immediate,
    Label,
    Operand,
    PhysicalRegister,
    Register,
    StackSlot,
    VirtualRegister,
)

_VREG_RE = re.compile(r"^v(\d+)$")
_PREG_RE = re.compile(r"^([A-Za-z_]+?)(\d+)$")
_SLOT_RE = re.compile(r"^\[sp\+(\d+)\]$")
_IMM_RE = re.compile(r"^#(-?\d+)$")
_LABEL_RE = re.compile(r"^@([A-Za-z_][A-Za-z0-9_.]*)$")
_BLOCK_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*):$")
_FUNC_RE = re.compile(r"^func\s+([A-Za-z_][A-Za-z0-9_.]*)\s*\(([^)]*)\)\s*\{$")
_CALL_RE = re.compile(
    r"^call\s+@([A-Za-z_][A-Za-z0-9_.]*)\s*\(([^)]*)\)\s*(?:->\s*\(([^)]*)\))?$"
)


class IRParseError(ValueError):
    """Raised when the textual IR cannot be parsed."""

    def __init__(self, message: str, line_number: Optional[int] = None):
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)
        self.line_number = line_number


def parse_register(token: str) -> Register:
    """Parse a register token (virtual ``vN`` or physical otherwise)."""

    match = _VREG_RE.match(token)
    if match:
        return VirtualRegister(token)
    match = _PREG_RE.match(token)
    if match:
        return PhysicalRegister(token, int(match.group(2)))
    return PhysicalRegister(token, -1)


def parse_operand(token: str) -> Operand:
    """Parse any operand token."""

    token = token.strip()
    match = _IMM_RE.match(token)
    if match:
        return Immediate(int(match.group(1)))
    match = _SLOT_RE.match(token)
    if match:
        return StackSlot(int(match.group(1)))
    match = _LABEL_RE.match(token)
    if match:
        return Label(match.group(1))
    if not token:
        raise IRParseError("empty operand")
    return parse_register(token)


def _parse_parameter(token: str):
    """A parameter: a register, or the ``arg`` stack slot it is passed in."""

    match = _SLOT_RE.match(token)
    if match:
        return StackSlot(int(match.group(1)), "arg")
    return parse_register(token)


def _split_operands(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def parse_instruction(line: str, line_number: Optional[int] = None) -> Instruction:
    """Parse a single instruction line (without leading whitespace)."""

    # Strip trailing comments introduced with ';'.
    line = line.split(";", 1)[0].strip()
    if not line:
        raise IRParseError("empty instruction", line_number)

    purpose = "program"
    purpose_match = re.search(r"!(\w+)\s*$", line)
    if purpose_match:
        purpose = purpose_match.group(1)
        line = line[: purpose_match.start()].strip()

    call_match = _CALL_RE.match(line)
    if call_match:
        callee, args_text, rets_text = call_match.groups()
        args = [parse_register(tok) for tok in _split_operands(args_text)]
        rets = [parse_register(tok) for tok in _split_operands(rets_text or "")]
        return ins.call(callee, args, rets)

    parts = line.split(None, 1)
    mnemonic = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    try:
        opcode = Opcode(mnemonic)
    except ValueError as exc:
        raise IRParseError(f"unknown opcode {mnemonic!r}", line_number) from exc

    if opcode is Opcode.NOP:
        return ins.nop()
    if opcode is Opcode.JMP:
        operand = parse_operand(rest.strip())
        if not isinstance(operand, Label):
            raise IRParseError("jmp expects a label operand", line_number)
        return ins.jump(operand)
    if opcode is Opcode.RET:
        values = [parse_register(tok) for tok in _split_operands(rest)]
        return ins.ret(values)
    if opcode is Opcode.BR:
        tokens = _split_operands(rest)
        if len(tokens) != 2:
            raise IRParseError("br expects a condition and a label", line_number)
        condition = parse_register(tokens[0])
        label = parse_operand(tokens[1])
        if not isinstance(label, Label):
            raise IRParseError("br target must be a label", line_number)
        return ins.branch(condition, label)
    if opcode is Opcode.SWITCH:
        tokens = _split_operands(rest)
        if len(tokens) < 2:
            raise IRParseError("switch expects a selector and at least one label", line_number)
        selector = parse_register(tokens[0])
        targets = []
        for token in tokens[1:]:
            operand = parse_operand(token)
            if not isinstance(operand, Label):
                raise IRParseError("switch targets must be labels", line_number)
            targets.append(operand)
        try:
            return ins.switch(selector, targets)
        except ValueError as exc:
            raise IRParseError(str(exc), line_number) from exc

    operands = [parse_operand(tok) for tok in _split_operands(rest)]
    info = OPCODE_INFO[opcode]
    if len(operands) != info.num_defs + info.num_uses:
        raise IRParseError(
            f"{mnemonic} expects {info.num_defs + info.num_uses} operands, "
            f"got {len(operands)}",
            line_number,
        )
    defs = operands[: info.num_defs]
    uses = operands[info.num_defs:]
    for d in defs:
        if not isinstance(d, Register):
            raise IRParseError(f"{mnemonic} destination must be a register", line_number)
    return Instruction(opcode, defs=tuple(defs), uses=tuple(uses), purpose=purpose)


def parse_function(text: str) -> Function:
    """Parse a single function from its textual form."""

    module = parse_module(text)
    if len(module) != 1:
        raise IRParseError(f"expected exactly one function, found {len(module)}")
    return module.functions[0]


def parse_module(text: str, name: str = "module") -> Module:
    """Parse a module containing zero or more functions."""

    module = Module(name)
    current_function: Optional[Function] = None
    current_block: Optional[BasicBlock] = None
    max_slot = -1

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("//", 1)[0].strip()
        if not line:
            continue

        func_match = _FUNC_RE.match(line)
        if func_match:
            if current_function is not None:
                raise IRParseError("nested function definition", line_number)
            func_name, params_text = func_match.groups()
            params = [_parse_parameter(tok) for tok in _split_operands(params_text)]
            current_function = Function(func_name, params)
            current_block = None
            max_slot = max((p.index for p in params if isinstance(p, StackSlot)), default=-1)
            continue

        if line == "}":
            if current_function is None:
                raise IRParseError("unmatched '}'", line_number)
            current_function.next_stack_slot = max_slot + 1
            module.add_function(current_function)
            current_function = None
            current_block = None
            continue

        if current_function is None:
            raise IRParseError(f"statement outside function: {line!r}", line_number)

        block_match = _BLOCK_RE.match(line)
        if block_match:
            current_block = BasicBlock(block_match.group(1))
            current_function.add_block(current_block)
            continue

        if current_block is None:
            raise IRParseError("instruction before first block label", line_number)
        inst = parse_instruction(line, line_number)
        for slot in inst.stack_slots():
            max_slot = max(max_slot, slot.index)
        current_block.instructions.append(inst)

    if current_function is not None:
        raise IRParseError("unterminated function (missing '}')")
    return module
