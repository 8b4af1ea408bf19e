"""IR-level utility transformations.

These are small, self-contained rewrites used to put functions into the
canonical shape the analyses expect (single exit, no unreachable blocks) and
to split edges when spill code has to be materialized on them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir import instructions as ins
from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import Edge, EdgeKind
from repro.ir.function import Function, reachable_blocks
from repro.ir.instructions import Opcode
from repro.ir.values import Label, VirtualRegister


def remove_unreachable_blocks(function: Function) -> int:
    """Delete blocks not reachable from the entry; returns how many were removed."""

    reachable = reachable_blocks(function)
    removed = 0
    for label in list(function.block_labels):
        if label not in reachable:
            function.remove_block(label)
            removed += 1
    return removed


def ensure_single_exit(function: Function, exit_label: str = "exit") -> Function:
    """Rewrite the function so that exactly one block ends in ``ret``.

    When several blocks return, a new unified exit block is appended and each
    returning block jumps to it instead.  Return values are dropped in the
    unified exit only when the original returns disagree; otherwise the common
    return value list is preserved.
    """

    exits = function.exit_blocks()
    if len(exits) <= 1:
        return function

    label = exit_label
    while function.has_block(label):
        label = function.new_label(exit_label)

    return_uses = [tuple(b.terminator.uses) for b in exits]
    arities = {len(uses) for uses in return_uses}
    if arities == {0}:
        # No return values anywhere: the unified exit simply returns.
        unified_uses: Tuple = ()
        forward_registers: Tuple = ()
    elif len(set(return_uses)) == 1:
        # Every exit returns the same registers: keep them.
        unified_uses = return_uses[0]
        forward_registers = ()
    else:
        # Exits return different values: funnel them through fresh registers
        # (a move is inserted in each exiting block before the jump).
        arity = max(arities)
        forward_registers = tuple(
            VirtualRegister(f"retval.{function.name}.{index}") for index in range(arity)
        )
        unified_uses = forward_registers

    unified = BasicBlock(label, [ins.ret(list(unified_uses))])
    function.add_block(unified)

    for block in exits:
        ret_inst = block.instructions.pop()
        if forward_registers:
            for target, value in zip(forward_registers, ret_inst.uses):
                block.instructions.append(ins.move(target, value))
        block.instructions.append(ins.jump(Label(label)))
    return function


def split_edge(function: Function, edge: Edge, label: Optional[str] = None) -> BasicBlock:
    """Insert a new empty block on ``edge`` and return it.

    The new block preserves the execution paths: ``src`` now transfers to the
    new block, and the new block transfers to ``dst``.  For jump edges the new
    block ends in an explicit ``jmp`` (the extra dynamic jump instruction the
    paper's jump-edge cost model accounts for).  For fall-through edges the
    new block is placed in layout right after ``src`` so that no new jump is
    required.
    """

    src_block = function.block(edge.src)
    dst_label = edge.dst
    new_label = label or function.new_label("split")
    term = src_block.terminator

    if edge.kind is EdgeKind.JUMP:
        if term is None or term.opcode not in (Opcode.BR, Opcode.JMP, Opcode.SWITCH):
            raise ValueError(f"edge {edge} is marked JUMP but {edge.src} has no jump")
        if term.opcode is Opcode.SWITCH:
            if all(t.name != dst_label for t in term.targets):
                raise ValueError(f"switch of {edge.src} does not target {dst_label}")
        elif term.target.name != dst_label:
            raise ValueError(f"terminator of {edge.src} does not target {dst_label}")
        # Retarget the terminator at the new block; the new block jumps on.
        # Instructions are shared between clones, so the block gets a
        # retargeted copy rather than an edited terminator.
        new_block = BasicBlock(new_label, [ins.jump(Label(dst_label))])
        function.add_block(new_block)
        src_block.instructions[-1] = term.retarget(dst_label, Label(new_label))
        return new_block

    if edge.kind is EdgeKind.FALLTHROUGH:
        if function.layout_successor(edge.src) != dst_label:
            raise ValueError(f"{dst_label} is not the layout successor of {edge.src}")
        # Place the new block between src and dst in layout; it falls through.
        new_block = BasicBlock(new_label)
        function.add_block(new_block, after=edge.src)
        return new_block

    raise ValueError(f"cannot split virtual edge {edge}")


def straighten_layout(function: Function) -> Function:
    """Replace ``jmp`` terminators that target the layout successor with fall-through.

    This keeps printed IR tidy after block insertion; it never changes the CFG.
    """

    for block in function.blocks:
        term = block.terminator
        if term is not None and term.opcode is Opcode.JMP:
            if term.target.name == function.layout_successor(block.label):
                block.instructions.pop()
    return function


def count_edge_kinds(function: Function) -> Dict[EdgeKind, int]:
    """Histogram of edge kinds; useful for workload statistics."""

    counts: Dict[EdgeKind, int] = {kind: 0 for kind in EdgeKind}
    for edge in function.edges():
        counts[edge.kind] += 1
    return counts
