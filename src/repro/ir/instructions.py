"""Instruction set of the toy IR.

The instruction set is deliberately small but covers everything a real
post-register-allocation spill pass has to reason about:

* plain computation (``add``, ``sub``, ``mul``, ``div``, ``mov``, ``li``,
  ``cmp_*``),
* memory traffic (``load``, ``store``) with an explicit *purpose* so that
  allocator spill code and callee-saved save/restore code can be told apart,
* control flow (``br`` conditional branch, ``jmp`` unconditional jump,
  ``switch`` multiway branch, ``ret`` return, ``call``),
* a ``nop`` used by tests and synthetic workloads as ballast.

Branches encode *both* successors: the taken target (a jump edge) and the
fall-through target.  This is what allows the spill placement pass to reason
about jump edges exactly as the paper does.

``switch`` carries an ordered tuple of case targets and never falls through:
the selector value indexes the target list (out-of-range values take the
last target, which doubles as the default case).  Every switch edge is an
explicit jump edge, so a switch whose targets also have other predecessors
produces *critical multiway jump edges* — the control flow where region-based
spill placement has to materialize jump blocks.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.values import Immediate, Label, Operand, Register, StackSlot


class Opcode(enum.Enum):
    """Operation codes understood by the IR, interpreter and passes."""

    # Arithmetic / data movement.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MOV = "mov"
    LI = "li"
    NEG = "neg"
    NOT = "not"
    NOP = "nop"

    # Comparisons producing 0/1 in the destination register.
    CMP_EQ = "cmpeq"
    CMP_NE = "cmpne"
    CMP_LT = "cmplt"
    CMP_LE = "cmple"
    CMP_GT = "cmpgt"
    CMP_GE = "cmpge"

    # Memory.
    LOAD = "load"
    STORE = "store"

    # Control flow.
    BR = "br"
    JMP = "jmp"
    SWITCH = "switch"
    CALL = "call"
    RET = "ret"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of an opcode used by the verifier and passes."""

    mnemonic: str
    num_defs: int
    num_uses: int
    is_terminator: bool = False
    is_call: bool = False
    is_memory: bool = False
    has_side_effects: bool = False


_BINARY = OpcodeInfo("binary", 1, 2)
_UNARY = OpcodeInfo("unary", 1, 1)

OPCODE_INFO: Dict[Opcode, OpcodeInfo] = {
    Opcode.ADD: _BINARY,
    Opcode.SUB: _BINARY,
    Opcode.MUL: _BINARY,
    Opcode.DIV: _BINARY,
    Opcode.REM: _BINARY,
    Opcode.AND: _BINARY,
    Opcode.OR: _BINARY,
    Opcode.XOR: _BINARY,
    Opcode.SHL: _BINARY,
    Opcode.SHR: _BINARY,
    Opcode.CMP_EQ: _BINARY,
    Opcode.CMP_NE: _BINARY,
    Opcode.CMP_LT: _BINARY,
    Opcode.CMP_LE: _BINARY,
    Opcode.CMP_GT: _BINARY,
    Opcode.CMP_GE: _BINARY,
    Opcode.MOV: _UNARY,
    Opcode.NEG: _UNARY,
    Opcode.NOT: _UNARY,
    Opcode.LI: OpcodeInfo("li", 1, 1),
    Opcode.NOP: OpcodeInfo("nop", 0, 0),
    Opcode.LOAD: OpcodeInfo("load", 1, 1, is_memory=True),
    Opcode.STORE: OpcodeInfo("store", 0, 2, is_memory=True, has_side_effects=True),
    Opcode.BR: OpcodeInfo("br", 0, 1, is_terminator=True, has_side_effects=True),
    Opcode.JMP: OpcodeInfo("jmp", 0, 0, is_terminator=True, has_side_effects=True),
    Opcode.SWITCH: OpcodeInfo("switch", 0, 1, is_terminator=True, has_side_effects=True),
    Opcode.CALL: OpcodeInfo("call", 0, 0, is_call=True, has_side_effects=True),
    Opcode.RET: OpcodeInfo("ret", 0, 0, is_terminator=True, has_side_effects=True),
}

COMPARISONS = {
    Opcode.CMP_EQ,
    Opcode.CMP_NE,
    Opcode.CMP_LT,
    Opcode.CMP_LE,
    Opcode.CMP_GT,
    Opcode.CMP_GE,
}

# Attach each opcode's info to the enum member itself.  ``inst.opcode.info``
# is a plain attribute read, where the ``OPCODE_INFO[...]`` lookup paid an
# ``Enum.__hash__`` call — a measurable cost at ~100k classification queries
# per cold compile leg.
for _opcode in Opcode:
    _opcode.info = OPCODE_INFO[_opcode]
del _opcode

#: Purposes a load/store instruction may carry; used by the overhead
#: accounting to classify memory traffic.  ``program`` traffic belongs to
#: the source program, ``spill``/``callee_save``/``callee_restore`` mark
#: compiler-inserted overhead, and ``arg`` marks entry loads of parameters
#: the calling convention passed on the stack.
MEMORY_PURPOSES = ("program", "spill", "callee_save", "callee_restore", "arg")

_instruction_ids = itertools.count()


class Instruction:
    """One IR instruction.

    A hand-slotted class (not a dataclass): instructions are the most numerous
    IR objects and the per-instance ``__dict__`` dominated the allocator's
    allocation profile.  Equality is identity — the generated field comparison
    included the unique ``uid``, so two distinct instructions never compared
    equal anyway.

    Instructions are values: no field is assigned after construction, so
    any number of blocks and functions may share one instance
    (:meth:`Function.clone <repro.ir.function.Function.clone>` does).  A
    rewrite builds a new instruction — :meth:`replace_registers`,
    :meth:`retarget` — and puts it in the block's list in place of the old
    one.  ``tools/check_hotpath.py`` rule ``H006`` flags field assignments
    outside this module; the rule is static because a raising
    ``__setattr__`` would tax every construction.

    Parameters
    ----------
    opcode:
        The operation performed.
    defs:
        Registers written by the instruction.
    uses:
        Operands read by the instruction (registers, immediates, stack slots).
    target:
        For ``BR``/``JMP``: the *taken* (jump) target label.  For ``CALL``:
        the callee name wrapped in a :class:`Label`.
    targets:
        For ``SWITCH``: the ordered tuple of case target labels.  The
        selector value indexes this tuple; out-of-range values take the
        last entry (the default case).  Targets must be distinct so the
        CFG keeps at most one edge per ``(src, dst)`` pair.
    purpose:
        For ``LOAD``/``STORE``: one of :data:`MEMORY_PURPOSES`.  ``program``
        memory traffic belongs to the source program, the other values mark
        compiler-inserted overhead.
    """

    __slots__ = ("opcode", "defs", "uses", "target", "targets", "purpose", "uid")

    def __init__(
        self,
        opcode: Opcode,
        defs: Tuple[Register, ...] = (),
        uses: Tuple[Operand, ...] = (),
        target: Optional[Label] = None,
        targets: Tuple[Label, ...] = (),
        purpose: str = "program",
        uid: Optional[int] = None,
    ):
        self.opcode = opcode
        self.defs = tuple(defs)
        self.uses = tuple(uses)
        self.target = target
        self.targets = tuple(targets)
        self.purpose = purpose
        self.uid = next(_instruction_ids) if uid is None else uid
        if opcode is Opcode.LOAD or opcode is Opcode.STORE:
            if purpose not in MEMORY_PURPOSES:
                raise ValueError(f"invalid memory purpose {purpose!r}")
        if opcode is Opcode.SWITCH and not self.targets:
            raise ValueError("switch requires at least one target label")

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in Instruction.__slots__}

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            setattr(self, key, value)

    # -- classification helpers -------------------------------------------------

    @property
    def info(self) -> OpcodeInfo:
        return self.opcode.info

    def is_terminator(self) -> bool:
        return self.opcode.info.is_terminator

    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    def is_memory(self) -> bool:
        return self.opcode.info.is_memory

    def is_branch(self) -> bool:
        return self.opcode is Opcode.BR

    def is_jump(self) -> bool:
        return self.opcode is Opcode.JMP

    def is_switch(self) -> bool:
        return self.opcode is Opcode.SWITCH

    def is_return(self) -> bool:
        return self.opcode is Opcode.RET

    def is_overhead(self) -> bool:
        """True when the instruction was inserted by the compiler backend."""

        return self.purpose != "program"

    def is_spill_code(self) -> bool:
        """True for allocator spill code and callee-saved save/restore code."""

        return self.is_memory() and self.purpose in (
            "spill",
            "callee_save",
            "callee_restore",
        )

    # -- operand helpers --------------------------------------------------------

    def registers_read(self) -> List[Register]:
        return [op for op in self.uses if isinstance(op, Register)]

    def registers_written(self) -> List[Register]:
        return list(self.defs)

    def registers(self) -> List[Register]:
        return self.registers_written() + self.registers_read()

    def stack_slots(self) -> List[StackSlot]:
        return [op for op in self.uses if isinstance(op, StackSlot)]

    def replace_registers(self, mapping: Dict[Register, Register]) -> "Instruction":
        """Return a copy with registers substituted according to ``mapping``.

        The copy skips ``__init__``'s checks: its opcode, purpose and
        targets are this instruction's, which already passed them.
        """

        get = mapping.get
        return self._rebuild(
            tuple([get(r, r) for r in self.defs]),
            tuple([get(op, op) if isinstance(op, Register) else op for op in self.uses]),
        )

    def copy(self) -> "Instruction":
        """An identical instruction with a fresh ``uid``."""

        return self._rebuild(self.defs, self.uses)

    def _rebuild(self, defs: Tuple[Register, ...], uses: Tuple[Operand, ...]) -> "Instruction":
        """The unchecked constructor behind :meth:`replace_registers` and
        :meth:`copy`: this instruction with new operand tuples."""

        new = object.__new__(Instruction)
        new.opcode = self.opcode
        new.defs = defs
        new.uses = uses
        new.target = self.target
        new.targets = self.targets
        new.purpose = self.purpose
        new.uid = next(_instruction_ids)
        return new

    def retarget(self, old: str, new: Label) -> "Instruction":
        """Return a copy of this ``br``/``jmp``/``switch`` whose jump
        target(s) named ``old`` point at ``new``."""

        target = self.target
        return Instruction(
            self.opcode,
            self.defs,
            self.uses,
            target=new if target is not None and target.name == old else target,
            targets=tuple(new if t.name == old else t for t in self.targets),
            purpose=self.purpose,
        )

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        parts: List[str] = [self.opcode.value]
        operands: List[str] = [str(d) for d in self.defs]
        operands.extend(str(u) for u in self.uses)
        if self.target is not None:
            operands.append(str(self.target))
        operands.extend(str(t) for t in self.targets)
        if operands:
            parts.append(", ".join(operands))
        text = " ".join(parts)
        if self.purpose != "program":
            text += f"  ; {self.purpose}"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instruction {self}>"


# ---------------------------------------------------------------------------
# Convenience constructors.  These keep call sites terse and readable and are
# the only sanctioned way for the rest of the code base to create
# instructions.
# ---------------------------------------------------------------------------


def binary(opcode: Opcode, dst: Register, lhs: Operand, rhs: Operand) -> Instruction:
    """Build a three-address binary operation ``dst = lhs <op> rhs``."""

    return Instruction(opcode, defs=(dst,), uses=(lhs, rhs))


def move(dst: Register, src: Operand) -> Instruction:
    """Build a register-to-register (or immediate-to-register) move."""

    return Instruction(Opcode.MOV, defs=(dst,), uses=(src,))


def load_immediate(dst: Register, value: int) -> Instruction:
    """Build ``dst = <constant>``."""

    return Instruction(Opcode.LI, defs=(dst,), uses=(Immediate(value),))


def load(dst: Register, slot: StackSlot, purpose: str = "program") -> Instruction:
    """Build a load of ``slot`` into ``dst``."""

    return Instruction(Opcode.LOAD, defs=(dst,), uses=(slot,), purpose=purpose)


def store(src: Register, slot: StackSlot, purpose: str = "program") -> Instruction:
    """Build a store of ``src`` into ``slot``."""

    return Instruction(Opcode.STORE, defs=(), uses=(src, slot), purpose=purpose)


def branch(condition: Register, taken: Label) -> Instruction:
    """Build a conditional branch; the fall-through successor is implicit."""

    return Instruction(Opcode.BR, defs=(), uses=(condition,), target=taken)


def jump(target: Label) -> Instruction:
    """Build an unconditional jump."""

    return Instruction(Opcode.JMP, defs=(), uses=(), target=target)


def switch(selector: Register, targets: Sequence[Label]) -> Instruction:
    """Build a multiway branch dispatching on ``selector``.

    A selector value ``i`` with ``0 <= i < len(targets)`` transfers control
    to ``targets[i]``; any other value takes the last target (the default
    case).  Targets must be distinct block labels.
    """

    targets = tuple(targets)
    if len({t.name for t in targets}) != len(targets):
        raise ValueError("switch targets must be distinct")
    return Instruction(Opcode.SWITCH, defs=(), uses=(selector,), targets=targets)


def call(
    callee: str,
    args: Sequence[Register] = (),
    returns: Sequence[Register] = (),
) -> Instruction:
    """Build a call instruction.

    ``args`` are read before the call; ``returns`` are defined by the call.
    Clobbering of caller-saved registers is modelled by the register
    allocator and interpreter, not by explicit defs.
    """

    return Instruction(
        Opcode.CALL,
        defs=tuple(returns),
        uses=tuple(args),
        target=Label(callee),
    )


def ret(values: Sequence[Register] = ()) -> Instruction:
    """Build a return instruction optionally carrying return values."""

    return Instruction(Opcode.RET, defs=(), uses=tuple(values))


def nop() -> Instruction:
    """Build a no-op used as ballast in synthetic workloads."""

    return Instruction(Opcode.NOP)


def restore_spill(dst: Register, slot: StackSlot) -> Instruction:
    """Build an allocator-inserted reload from a spill slot."""

    return load(dst, slot, purpose="spill")


def save_spill(src: Register, slot: StackSlot) -> Instruction:
    """Build an allocator-inserted store to a spill slot."""

    return store(src, slot, purpose="spill")


def callee_save(src: Register, slot: StackSlot) -> Instruction:
    """Build a callee-saved *save* (store) instruction."""

    return store(src, slot, purpose="callee_save")


def callee_restore(dst: Register, slot: StackSlot) -> Instruction:
    """Build a callee-saved *restore* (load) instruction."""

    return load(dst, slot, purpose="callee_restore")
