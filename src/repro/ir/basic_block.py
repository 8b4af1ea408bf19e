"""Basic blocks of the toy IR."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.ir.instructions import Instruction, Opcode


class BasicBlock:
    """A maximal straight-line sequence of instructions.

    A block holds an ordered list of instructions.  The last instruction may
    be a terminator (``br``, ``jmp``, ``ret``); when the last instruction is
    not a terminator the block falls through to its layout successor.

    Successor/predecessor relationships are owned by the enclosing
    :class:`~repro.ir.function.Function`, which derives them from terminators
    and layout order; blocks themselves only store instructions and a label.
    """

    __slots__ = ("label", "instructions")

    def __init__(self, label: str, instructions: Optional[Iterable[Instruction]] = None):
        if not label:
            raise ValueError("basic block label must be non-empty")
        self.label = label
        self.instructions: List[Instruction] = list(instructions or [])

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        return {"label": self.label, "instructions": self.instructions}

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            setattr(self, key, value)

    # -- terminators -----------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        """The trailing terminator instruction, if any."""

        instructions = self.instructions
        if instructions and instructions[-1].opcode.info.is_terminator:
            return instructions[-1]
        return None

    def has_terminator(self) -> bool:
        return self.terminator is not None

    def falls_through(self) -> bool:
        """True when execution may continue into the layout successor."""

        term = self.terminator
        if term is None:
            return True
        if term.opcode is Opcode.BR:
            # A conditional branch falls through when not taken.
            return True
        return False

    # -- instruction management --------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        """Append ``inst``, keeping any terminator last."""

        if self.has_terminator() and not inst.is_terminator():
            self.instructions.insert(len(self.instructions) - 1, inst)
        else:
            self.instructions.append(inst)
        return inst

    def prepend(self, inst: Instruction) -> Instruction:
        """Insert ``inst`` at the very top of the block."""

        self.instructions.insert(0, inst)
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        """Insert ``inst`` immediately before the terminator (or at the end)."""

        if self.has_terminator():
            self.instructions.insert(len(self.instructions) - 1, inst)
        else:
            self.instructions.append(inst)
        return inst

    def body(self) -> List[Instruction]:
        """The instructions excluding a trailing terminator."""

        if self.has_terminator():
            return self.instructions[:-1]
        return list(self.instructions)

    def calls(self) -> List[Instruction]:
        """All call instructions in the block."""

        return [inst for inst in self.instructions if inst.is_call()]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {inst}" for inst in self.instructions)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.label} ({len(self.instructions)} insts)>"
