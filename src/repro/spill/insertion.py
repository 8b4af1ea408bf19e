"""Materializing a spill placement: rewriting the function.

Every :class:`~repro.spill.model.SpillLocation` lives on a CFG edge.  To turn
the placement into executable code the pass picks, per edge, a concrete
insertion point:

* virtual procedure entry edge — the top of the entry block;
* virtual procedure exit edge — just before the return;
* an edge whose destination has a single predecessor (and is not the entry
  block) — the top of the destination block;
* an edge whose source has a single successor — the bottom of the source
  block, before its terminator;
* any other fall-through edge — a new block spliced into the layout (no new
  jump instruction needed);
* any other jump edge — a new *jump block*: the branch/jump is retargeted at
  a fresh block which ends with a jump to the original destination.  The new
  jump instruction is the extra dynamic overhead the jump-edge cost model
  accounts for.

Each callee-saved register gets one stack slot; all locations of a register
use it.  Registers whose locations share an edge share the same inserted
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir import instructions as ins
from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import EdgeKind
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.ir.passes import split_edge
from repro.ir.values import PhysicalRegister, StackSlot
from repro.profiling.profile_data import EdgeProfile
from repro.spill.model import EdgeKey, SpillLocation, SpillPlacement


@dataclass
class InsertionResult:
    """Statistics and bookkeeping produced by :func:`apply_placement`."""

    function: Function
    slots: Dict[PhysicalRegister, StackSlot] = field(default_factory=dict)
    inserted_saves: int = 0
    inserted_restores: int = 0
    jump_blocks: Dict[EdgeKey, str] = field(default_factory=dict)
    split_blocks: Dict[EdgeKey, str] = field(default_factory=dict)
    inserted_jumps: int = 0


def _make_instruction(location: SpillLocation, slot: StackSlot):
    if location.is_save():
        return ins.callee_save(location.register, slot)
    return ins.callee_restore(location.register, slot)


def apply_placement(
    function: Function,
    placement: SpillPlacement,
    profile: Optional[EdgeProfile] = None,
) -> InsertionResult:
    """Insert the save/restore instructions of ``placement`` into ``function``.

    The function is modified in place (clone it first if the original must be
    preserved).  When ``profile`` is given, its edge counts are extended so
    that edges created by block splitting keep the original edge's count and
    the profile stays flow-conserving on the rewritten function.
    """

    result = InsertionResult(function=function)
    entry_label = function.entry.label
    exit_label = function.exit.label

    for register in placement.registers():
        if placement.locations_for(register):
            result.slots[register] = function.allocate_stack_slot("callee_save")

    # Insert per edge so that several registers on the same edge share the
    # same split/jump block (and therefore a single extra jump instruction).
    by_edge = placement.edges_with_locations()
    for edge_key in sorted(by_edge):
        locations = sorted(by_edge[edge_key], key=lambda l: (l.kind.value, l.register.name))
        src, dst = edge_key

        if src == ENTRY_SENTINEL:
            block = function.block(entry_label)
            # Saves at procedure entry execute before everything else.
            for offset, location in enumerate(locations):
                block.instructions.insert(offset, _make_instruction(location, result.slots[location.register]))
                _count(result, location)
            continue

        if dst == EXIT_SENTINEL:
            block = function.block(exit_label)
            for location in locations:
                block.insert_before_terminator(
                    _make_instruction(location, result.slots[location.register])
                )
                _count(result, location)
            continue

        edge = function.edge(src, dst)
        if dst != entry_label and len(function.predecessors(dst)) == 1:
            block = function.block(dst)
            for offset, location in enumerate(locations):
                block.instructions.insert(offset, _make_instruction(location, result.slots[location.register]))
                _count(result, location)
            continue

        if len(function.successors(src)) == 1:
            block = function.block(src)
            for location in locations:
                block.insert_before_terminator(
                    _make_instruction(location, result.slots[location.register])
                )
                _count(result, location)
            continue

        # Critical edge: a new block is required.
        needs_jump = edge.kind is EdgeKind.JUMP
        new_block = split_edge(function, edge, label=function.new_label("spill"))
        if needs_jump:
            result.jump_blocks[edge_key] = new_block.label
            result.inserted_jumps += 1
        else:
            result.split_blocks[edge_key] = new_block.label
        for location in locations:
            new_block.insert_before_terminator(
                _make_instruction(location, result.slots[location.register])
            )
            _count(result, location)
        if profile is not None:
            _extend_profile(profile, edge_key, new_block.label)

    return result


def _count(result: InsertionResult, location: SpillLocation) -> None:
    if location.is_save():
        result.inserted_saves += 1
    else:
        result.inserted_restores += 1


def _extend_profile(profile: EdgeProfile, original: EdgeKey, new_label: str) -> None:
    """Re-route the profile count of a split edge through the new block."""

    count = profile.edge_counts.pop(original, 0.0)
    profile.edge_counts[(original[0], new_label)] = count
    profile.edge_counts[(new_label, original[1])] = count
