"""A reference interpreter for the toy IR.

The interpreter serves three purposes:

* *profiling* — it counts every edge traversal, block execution and executed
  instruction, providing measured profiles for deterministic programs;
* *semantic preservation* — tests run a function before and after register
  allocation / spill insertion and compare results;
* *convention checking* — the harness poisons callee-saved registers before a
  call and verifies they are intact afterwards, which is exactly the property
  a valid save/restore placement must guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.module import Module
from repro.ir.values import Immediate, Label, PhysicalRegister, Register, StackSlot
from repro.target.machine import MachineDescription

EdgeKey = Tuple[str, str]

#: Value written into caller-saved registers by external calls and into
#: callee-saved registers by the convention-checking harness.
POISON = -0x5EED


class InterpreterError(RuntimeError):
    """Raised when execution goes wrong (missing value, step limit, bad IR)."""


@dataclass
class ExecutionResult:
    """Outcome and dynamic statistics of one function execution."""

    return_values: Tuple[int, ...]
    steps: int
    block_counts: Dict[str, int] = field(default_factory=dict)
    edge_counts: Dict[EdgeKey, int] = field(default_factory=dict)
    #: Executed instruction counts grouped by instruction purpose
    #: (``program``, ``spill``, ``callee_save``, ``callee_restore``).
    purpose_counts: Dict[str, int] = field(default_factory=dict)
    calls_made: int = 0
    #: The executed function's register file when it returned.
    registers: Dict[Register, int] = field(default_factory=dict)

    def executed_overhead(self) -> int:
        """Executed compiler-inserted loads/stores (all purposes except program)."""

        return sum(count for purpose, count in self.purpose_counts.items() if purpose != "program")


@dataclass
class _Frame:
    registers: Dict[Register, int]
    stack: Dict[int, int]


class Interpreter:
    """Executes IR functions, optionally resolving calls within a module."""

    def __init__(
        self,
        module: Optional[Module] = None,
        machine: Optional[MachineDescription] = None,
        max_steps: int = 1_000_000,
        check_callee_saved: bool = False,
    ):
        self.module = module
        self.machine = machine
        self.max_steps = max_steps
        self.check_callee_saved = check_callee_saved
        self._steps = 0

    # -- public API -----------------------------------------------------------------

    def run(
        self,
        function: Function,
        args: Sequence[int] = (),
        initial_registers: Optional[Mapping[Register, int]] = None,
    ) -> ExecutionResult:
        """Execute ``function`` with integer ``args`` bound to its parameters."""

        self._steps = 0
        result = ExecutionResult(return_values=(), steps=0)
        registers: Dict[Register, int] = dict(initial_registers or {})
        frame = _Frame(registers=registers, stack={})
        for param, value in zip(function.params, args):
            # Overflow arguments arrive on the stack (the allocator rewrites
            # parameters beyond the machine's caller-saved capacity into
            # stack slots); register arguments are bound directly.
            if isinstance(param, StackSlot):
                frame.stack[param.index] = int(value)
            else:
                registers[param] = int(value)
        returned = self._run_frame(function, frame, result)
        result.return_values = returned
        result.steps = self._steps
        result.registers = registers
        return result

    # -- execution ------------------------------------------------------------------

    def _run_frame(
        self, function: Function, frame: _Frame, result: ExecutionResult
    ) -> Tuple[int, ...]:
        label = function.entry.label
        previous: Optional[str] = None
        while True:
            if previous is not None:
                result.edge_counts[(previous, label)] = (
                    result.edge_counts.get((previous, label), 0) + 1
                )
            result.block_counts[label] = result.block_counts.get(label, 0) + 1
            block = function.block(label)
            next_label: Optional[str] = None
            for inst in block.instructions:
                self._steps += 1
                if self._steps > self.max_steps:
                    raise InterpreterError(
                        f"step limit {self.max_steps} exceeded in {function.name!r}"
                    )
                result.purpose_counts[inst.purpose] = (
                    result.purpose_counts.get(inst.purpose, 0) + 1
                )
                outcome = self._execute(function, inst, frame, result)
                if outcome is not None:
                    kind, payload = outcome
                    if kind == "return":
                        return payload
                    if kind == "branch":
                        next_label = payload
                        break
            if next_label is None:
                successor = function.layout_successor(label)
                if successor is None:
                    raise InterpreterError(
                        f"fell off the end of {function.name!r} in block {label!r}"
                    )
                next_label = successor
            previous, label = label, next_label

    def _execute(self, function, inst: Instruction, frame: _Frame, result: ExecutionResult):
        op = inst.opcode
        if op is Opcode.NOP:
            return None
        if op is Opcode.LI:
            frame.registers[inst.defs[0]] = self._value(inst.uses[0], frame)
            return None
        if op is Opcode.MOV:
            frame.registers[inst.defs[0]] = self._value(inst.uses[0], frame)
            return None
        if op in _BINARY_OPS:
            lhs = self._value(inst.uses[0], frame)
            rhs = self._value(inst.uses[1], frame)
            frame.registers[inst.defs[0]] = _BINARY_OPS[op](lhs, rhs)
            return None
        if op is Opcode.NEG:
            frame.registers[inst.defs[0]] = -self._value(inst.uses[0], frame)
            return None
        if op is Opcode.NOT:
            frame.registers[inst.defs[0]] = ~self._value(inst.uses[0], frame)
            return None
        if op is Opcode.LOAD:
            slot = inst.uses[0]
            if not isinstance(slot, StackSlot):
                raise InterpreterError(f"load expects a stack slot, got {slot}")
            frame.registers[inst.defs[0]] = frame.stack.get(slot.index, 0)
            return None
        if op is Opcode.STORE:
            register, slot = inst.uses
            if not isinstance(slot, StackSlot):
                raise InterpreterError(f"store expects a stack slot, got {slot}")
            frame.stack[slot.index] = self._value(register, frame)
            return None
        if op is Opcode.BR:
            condition = self._value(inst.uses[0], frame)
            if condition != 0:
                return ("branch", inst.target.name)
            return None
        if op is Opcode.JMP:
            return ("branch", inst.target.name)
        if op is Opcode.SWITCH:
            selector = self._value(inst.uses[0], frame)
            if 0 <= selector < len(inst.targets):
                return ("branch", inst.targets[selector].name)
            return ("branch", inst.targets[-1].name)
        if op is Opcode.RET:
            return ("return", tuple(self._value(u, frame) for u in inst.uses))
        if op is Opcode.CALL:
            self._execute_call(inst, frame, result)
            return None
        raise InterpreterError(f"unsupported opcode {op}")

    def _execute_call(self, inst: Instruction, frame: _Frame, result: ExecutionResult) -> None:
        result.calls_made += 1
        callee_name = inst.target.name
        saved_callee_values: Dict[Register, int] = {}
        if self.check_callee_saved and self.machine is not None:
            saved_callee_values = {
                reg: frame.registers.get(reg, 0) for reg in self.machine.callee_saved
            }

        if self.module is not None and self.module.has_function(callee_name):
            callee = self.module.function(callee_name)
            callee_registers: Dict[Register, int] = {}
            callee_stack: Dict[int, int] = {}
            for param, arg in zip(callee.params, inst.uses):
                if isinstance(param, StackSlot):
                    callee_stack[param.index] = self._value(arg, frame)
                else:
                    callee_registers[param] = self._value(arg, frame)
            # Physical-register arguments are visible to the callee directly
            # (the calling convention passes them in registers).
            for reg, value in frame.registers.items():
                if isinstance(reg, PhysicalRegister):
                    callee_registers.setdefault(reg, value)
            callee_frame = _Frame(registers=callee_registers, stack=callee_stack)
            returned = self._run_frame(callee, callee_frame, result)
            # Callee-saved registers keep the callee's final values (a correct
            # callee restores them); caller-saved registers are clobbered.
            if self.machine is not None:
                for reg in self.machine.caller_saved:
                    frame.registers[reg] = callee_frame.registers.get(reg, POISON)
                callee_saved_set = self.machine.callee_saved_set
                for reg, value in callee_frame.registers.items():
                    if reg in callee_saved_set:
                        frame.registers[reg] = value
            return_values = [
                returned[index] if index < len(returned) else 0
                for index in range(len(inst.defs))
            ]
        else:
            # External call: model clobbering of caller-saved registers and a
            # deterministic return value derived from the callee name.
            if self.machine is not None:
                for reg in self.machine.caller_saved:
                    frame.registers[reg] = POISON
            value = sum(ord(c) for c in callee_name) % 251
            return_values = [value for _ in inst.defs]

        # The convention check looks at the state the *callee* left behind,
        # before the caller's own result registers are written (receiving a
        # return value into a callee-saved register the caller has saved is
        # perfectly legal).
        if self.check_callee_saved and self.machine is not None:
            for reg, before in saved_callee_values.items():
                after = frame.registers.get(reg, 0)
                if before != after:
                    raise InterpreterError(
                        f"callee-saved register {reg.name} changed across call to "
                        f"{callee_name!r}: {before} -> {after}"
                    )

        for ret_reg, value in zip(inst.defs, return_values):
            frame.registers[ret_reg] = value

    def _value(self, operand, frame: _Frame) -> int:
        if isinstance(operand, Immediate):
            return operand.value
        if isinstance(operand, Register):
            if operand not in frame.registers:
                # Uninitialized registers read as zero; synthetic workloads
                # rely on this for ballast instructions.
                return 0
            return frame.registers[operand]
        raise InterpreterError(f"cannot read operand {operand!r}")


def _int_div(a: int, b: int) -> int:
    return int(a / b) if b != 0 else 0


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b if b != 0 else 0


_BINARY_OPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _int_div,
    Opcode.REM: _int_rem,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << max(0, min(b, 63)),
    Opcode.SHR: lambda a, b: a >> max(0, min(b, 63)),
    Opcode.CMP_EQ: lambda a, b: int(a == b),
    Opcode.CMP_NE: lambda a, b: int(a != b),
    Opcode.CMP_LT: lambda a, b: int(a < b),
    Opcode.CMP_LE: lambda a, b: int(a <= b),
    Opcode.CMP_GT: lambda a, b: int(a > b),
    Opcode.CMP_GE: lambda a, b: int(a >= b),
}


def run_with_convention_check(
    function: Function,
    machine: MachineDescription,
    module: Optional[Module] = None,
    args: Sequence[int] = (),
) -> ExecutionResult:
    """Execute ``function`` with poisoned callee-saved registers and verify them.

    Callee-saved registers are pre-loaded with distinct sentinel values, the
    function runs, and the values must be intact afterwards — the exact
    guarantee a valid callee-saved save/restore placement provides.  Raises
    :class:`InterpreterError` when the convention is violated.
    """

    sentinels = {
        reg: POISON - index for index, reg in enumerate(machine.callee_saved)
    }
    interpreter = Interpreter(module=module, machine=machine, check_callee_saved=True)
    result = interpreter.run(function, args=args, initial_registers=sentinels)
    # The caller's view after return: callee-saved registers must be unchanged.
    for reg, expected in sentinels.items():
        actual = result.registers.get(reg, expected)
        if actual != expected:
            raise InterpreterError(
                f"callee-saved register {reg.name} not preserved by {function.name!r}: "
                f"expected {expected}, found {actual}"
            )
    return result
