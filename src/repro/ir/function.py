"""The :class:`Function` container: blocks, layout order and the CFG."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import ENTRY_SENTINEL, EXIT_SENTINEL, Edge, EdgeKind, FunctionCFG
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import PhysicalRegister, Register, VirtualRegister

__all__ = [
    "ENTRY_SENTINEL",
    "EXIT_SENTINEL",
    "Function",
    "blocks_reaching_exit",
    "reachable_blocks",
]


class Function:
    """A procedure: an ordered collection of basic blocks.

    The block insertion order is the *layout order*; fall-through edges follow
    it.  The first block is the entry block.  Exit blocks are the blocks whose
    terminator is ``ret``.  Most analyses and all spill-placement algorithms
    require a canonical single exit, which
    :func:`repro.ir.passes.ensure_single_exit` establishes.
    """

    def __init__(self, name: str, params: Sequence[Register] = ()):
        if not name:
            raise ValueError("function name must be non-empty")
        self.name = name
        self.params: Tuple[Register, ...] = tuple(params)
        self._blocks: Dict[str, BasicBlock] = {}
        self._layout: List[str] = []
        self._label_counter = 0
        #: Next free stack-slot index; bumped by the allocator and the spill
        #: insertion pass.
        self.next_stack_slot = 0
        #: Cached CFG snapshot (see :meth:`cfg`); never pickled.
        self._cfg: Optional[FunctionCFG] = None

    # -- block management --------------------------------------------------------

    def add_block(self, block: BasicBlock, after: Optional[str] = None) -> BasicBlock:
        """Add ``block``; optionally place it right after block ``after``."""

        if block.label in self._blocks:
            raise ValueError(f"duplicate block label {block.label!r}")
        self._blocks[block.label] = block
        if after is None:
            self._layout.append(block.label)
        else:
            index = self._layout.index(after)
            self._layout.insert(index + 1, block.label)
        self._cfg = None
        return block

    def new_block(self, prefix: str = "bb", after: Optional[str] = None) -> BasicBlock:
        """Create, register and return an empty block with a fresh label."""

        return self.add_block(BasicBlock(self.new_label(prefix)), after=after)

    def new_label(self, prefix: str = "bb") -> str:
        """Return a label that does not clash with any existing block."""

        while True:
            self._label_counter += 1
            label = f"{prefix}{self._label_counter}"
            if label not in self._blocks:
                return label

    def remove_block(self, label: str) -> None:
        del self._blocks[label]
        self._layout.remove(label)
        self._cfg = None

    def block(self, label: str) -> BasicBlock:
        return self._blocks[label]

    def has_block(self, label: str) -> bool:
        return label in self._blocks

    @property
    def blocks(self) -> List[BasicBlock]:
        """Blocks in layout order."""

        return [self._blocks[label] for label in self._layout]

    @property
    def block_labels(self) -> List[str]:
        return list(self._layout)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self._layout)

    def __contains__(self, label: str) -> bool:
        return label in self._blocks

    # -- entry / exits -----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self._layout:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self._blocks[self._layout[0]]

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks terminated by ``ret``."""

        return [self._blocks[label] for label in self.cfg().exit_labels]

    @property
    def exit(self) -> BasicBlock:
        """The unique exit block; raises when the function has several."""

        exits = self.exit_blocks()
        if len(exits) != 1:
            raise ValueError(
                f"function {self.name!r} has {len(exits)} exit blocks; "
                "run repro.ir.passes.ensure_single_exit first"
            )
        return exits[0]

    def has_single_exit(self) -> bool:
        return len(self.exit_blocks()) == 1

    # -- CFG derivation ----------------------------------------------------------

    def cfg(self) -> FunctionCFG:
        """The cached :class:`~repro.ir.cfg.FunctionCFG` snapshot.

        The snapshot is revalidated against the current terminator signature
        on every call, so callers always observe the live CFG even after a
        block's terminator is replaced (which the function cannot otherwise
        detect).  Passes that query the CFG many times between mutations
        should fetch the snapshot once and use its tables directly.
        """

        cfg = self._cfg
        if cfg is not None and self._cfg_signature_matches(cfg.signature):
            return cfg
        cfg = FunctionCFG(self.name, self._cfg_signature())
        self._cfg = cfg
        return cfg

    def _cfg_signature(self):
        """Per-block ``(label, terminator opcode, target, targets)`` tuples."""

        items = []
        blocks = self._blocks
        for label in self._layout:
            instructions = blocks[label].instructions
            term = instructions[-1] if instructions else None
            if term is None or not term.opcode.info.is_terminator:
                items.append((label, None, None, ()))
                continue
            target = term.target
            items.append(
                (
                    label,
                    term.opcode,
                    target.name if target is not None else None,
                    tuple(t.name for t in term.targets) if term.targets else (),
                )
            )
        return tuple(items)

    def _cfg_signature_matches(self, signature) -> bool:
        """Allocation-free comparison of ``signature`` against the live IR."""

        layout = self._layout
        if len(signature) != len(layout):
            return False
        blocks = self._blocks
        for i, label in enumerate(layout):
            item = signature[i]
            if item[0] != label:
                return False
            instructions = blocks[label].instructions
            term = instructions[-1] if instructions else None
            if term is None or not term.opcode.info.is_terminator:
                if item[1] is not None:
                    return False
                continue
            if item[1] is not term.opcode:
                return False
            target = term.target
            if target is None:
                if item[2] is not None:
                    return False
            elif item[2] != target.name:
                return False
            targets = term.targets
            names = item[3]
            if len(targets) != len(names):
                return False
            for t, name in zip(targets, names):
                if t.name != name:
                    return False
        return True

    def layout_successor(self, label: str) -> Optional[str]:
        """The next block in layout order, or ``None`` for the last block."""

        index = self._layout.index(label)
        if index + 1 < len(self._layout):
            return self._layout[index + 1]
        return None

    def edges(self) -> List[Edge]:
        """All CFG edges, derived from terminators and layout order."""

        return list(self.cfg().edges)

    def block_out_edges(self, label: str) -> List[Edge]:
        """Out edges of one block, taken (jump) edges first."""

        return list(self.cfg().out_edges[label])

    def successors(self, label: str) -> List[str]:
        return list(self.cfg().succs[label])

    def predecessors(self, label: str) -> List[str]:
        return list(self.cfg().preds.get(label, ()))

    def edge(self, src: str, dst: str) -> Edge:
        """The edge ``src -> dst``; raises ``KeyError`` when absent."""

        return self.cfg().edge(src, dst)

    def has_edge(self, src: str, dst: str) -> bool:
        return self.cfg().has_edge(src, dst)

    def entry_edge(self) -> Edge:
        """The virtual procedure-entry edge."""

        return Edge(ENTRY_SENTINEL, self.entry.label, EdgeKind.VIRTUAL)

    def exit_edge(self) -> Edge:
        """The virtual procedure-exit edge (requires a single exit)."""

        return Edge(self.exit.label, EXIT_SENTINEL, EdgeKind.VIRTUAL)

    # -- instructions and registers ----------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def calls(self) -> List[Instruction]:
        return [inst for inst in self.instructions() if inst.is_call()]

    def registers(self) -> Set[Register]:
        regs: Set[Register] = set(self.params)
        for inst in self.instructions():
            regs.update(inst.registers())
        return regs

    def virtual_registers(self) -> Set[VirtualRegister]:
        return {r for r in self.registers() if isinstance(r, VirtualRegister)}

    def physical_registers(self) -> Set[PhysicalRegister]:
        return {r for r in self.registers() if isinstance(r, PhysicalRegister)}

    def allocate_stack_slot(self, purpose: str = "spill"):
        """Reserve and return a fresh :class:`~repro.ir.values.StackSlot`."""

        from repro.ir.values import StackSlot

        slot = StackSlot(self.next_stack_slot, purpose)
        self.next_stack_slot += 1
        return slot

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Drop the CFG snapshot: it is derived state, rebuilt on demand."""

        state = self.__dict__.copy()
        state["_cfg"] = None
        return state

    # -- cloning -----------------------------------------------------------------

    def clone(self, name: Optional[str] = None) -> "Function":
        """Copy the function: new blocks and instruction lists, shared
        (immutable) instructions and values."""

        copy = Function(name or self.name, self.params)
        copy.next_stack_slot = self.next_stack_slot
        copy._label_counter = self._label_counter
        for block in self.blocks:
            copy.add_block(BasicBlock(block.label, block.instructions))
        return copy

    # -- statistics ---------------------------------------------------------------

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def __str__(self) -> str:
        from repro.ir.printer import print_function

        return print_function(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name} ({len(self)} blocks, {self.instruction_count()} insts)>"


def reachable_blocks(function: Function) -> Set[str]:
    """Labels of blocks reachable from the entry block."""

    succs = function.cfg().succs
    seen: Set[str] = set()
    stack = [function.entry.label]
    while stack:
        label = stack.pop()
        if label in seen or label not in function:
            # Unknown labels (dangling branch targets) are reported by the
            # verifier; traversal simply stops at them.
            continue
        seen.add(label)
        stack.extend(s for s in succs[label] if s not in seen)
    return seen


def blocks_reaching_exit(function: Function) -> Set[str]:
    """Labels of blocks from which some exit block is reachable."""

    preds: Dict[str, List[str]] = {label: [] for label in function.block_labels}
    for edge in function.edges():
        preds.setdefault(edge.dst, []).append(edge.src)
    seen: Set[str] = set()
    stack = [b.label for b in function.exit_blocks()]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(p for p in preds.get(label, []) if p not in seen)
    return seen
