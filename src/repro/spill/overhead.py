"""Analytic dynamic-overhead accounting for spill placements.

The paper's Figure 5 and Table 1 report the *dynamic spill code overhead*: the
profile-weighted count of every compiler-inserted load/store (allocator spill
code, identical across techniques) plus every callee-saved save/restore
instruction and every jump instruction needed to materialize spill code in a
jump block.

This module computes the callee-saved part of that overhead directly from a
placement and an edge profile, without rewriting the function; the tests
cross-check it end to end against an interpreter-based measurement of the
rewritten function (``tests/oracles/overhead.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.session import CompilationSession
from repro.ir.cfg import FunctionCFG
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.profiling.profile_data import EdgeProfile
from repro.spill.model import SpillPlacement
from repro.spill.sets import in_key_order, location_masks
from repro.target.machine import MachineDescription, cost_weights


@dataclass(frozen=True)
class PlacementOverhead:
    """Breakdown of the dynamic overhead of one placement."""

    save_count: float
    restore_count: float
    jump_count: float
    num_jump_blocks: int

    @property
    def total(self) -> float:
        return self.save_count + self.restore_count + self.jump_count

    def __str__(self) -> str:
        return (
            f"saves={self.save_count:g} restores={self.restore_count:g} "
            f"jumps={self.jump_count:g} (total {self.total:g})"
        )


def placement_dynamic_overhead(
    function: Function,
    profile: EdgeProfile,
    placement: SpillPlacement,
    machine: Optional[MachineDescription] = None,
    cfg: Optional[FunctionCFG] = None,
) -> PlacementOverhead:
    """Dynamic overhead of the callee-saved save/restore code of ``placement``.

    Every location costs the execution count of its edge.  Edges that require
    a jump block and carry at least one location additionally cost one jump
    instruction per execution — charged once per edge, because registers
    placed on the same edge share the jump block.  When ``machine`` is given,
    saves, restores and jumps are weighted by the target's instruction costs
    instead of counting one unit each.  A location on no CFG edge raises
    ``KeyError``.
    """

    save_weight, restore_weight, jump_weight = cost_weights(machine)
    edges = (cfg or function.cfg()).placement_edges()
    keys, jump_mask = edges.keys, edges.jump_mask

    # Summed in the placement's canonical location order; each jump edge
    # is charged once, in the order its first location appears.
    save_count = restore_count = 0.0
    jump_edges: List[int] = []
    for register in placement.registers():
        for srset in placement.sets[register]:
            saves, restores, strays = location_masks(edges, srset.locations)
            if strays:
                raise KeyError(f"location {strays[0]} does not lie on a CFG edge")
            restore_edges = in_key_order(edges, restores)
            save_edges = in_key_order(edges, saves)
            for n in restore_edges:
                restore_count += profile.edge_count(keys[n]) * restore_weight
            for n in save_edges:
                save_count += profile.edge_count(keys[n]) * save_weight
            for n in restore_edges + save_edges:
                if jump_mask >> n & 1 and n not in jump_edges:
                    jump_edges.append(n)

    jump_count = 0.0
    for n in jump_edges:
        jump_count += profile.edge_count(keys[n]) * jump_weight

    return PlacementOverhead(
        save_count=save_count,
        restore_count=restore_count,
        jump_count=jump_count,
        num_jump_blocks=len(jump_edges),
    )


def allocator_spill_overhead(
    function: Function,
    profile: EdgeProfile,
    machine: Optional[MachineDescription] = None,
    session: Optional[CompilationSession] = None,
) -> float:
    """Profile-weighted count of allocator-inserted spill loads/stores.

    This component is identical for all three placement techniques (the
    register allocation is fixed before placement runs); it is included in
    Figure 5's totals.  With ``machine``, spill stores are weighted by the
    target's save (store) cost and spill loads by its restore (load) cost.
    ``session`` (over the same function and ``profile``) supplies the block
    counts.
    """

    store_weight, load_weight, _ = cost_weights(machine)

    total = 0.0
    if session is None:
        session = CompilationSession(function, profile)
    block_counts = session.block_counts
    for block in function.blocks:
        count = block_counts[block.label]
        for inst in block.instructions:
            if inst.is_memory() and inst.purpose == "spill":
                total += count * (store_weight if inst.opcode is Opcode.STORE else load_weight)
    return total
