"""Live-variable analysis over registers.

Liveness drives interference-graph construction in the register allocator,
callee-saved occupancy after allocation, and the liveness lint rules.  The
solution is block-level (live-in / live-out masks) with
:func:`live_masks_at_each_instruction` to refine within a block.

Everything is a packed bitset (:mod:`repro.analysis.bitset`): registers are
interned to bit positions once per function and the data-flow iteration is
integer arithmetic.  :class:`LivenessInfo` is the mask solution itself; tests
read registers back through its :attr:`~LivenessInfo.index`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.bitset import (
    RegisterIndex,
    base_register_index,
    pack_instructions,
    solve_bit_dataflow,
)
from repro.ir.function import Function


@dataclass
class LivenessInfo:
    """The liveness solution as bitmasks, plus the register index behind them.

    Masks are per block label and over :attr:`index`.  Treat the solution as
    immutable and recompute it after changing the function.
    """

    index: RegisterIndex
    live_in: Dict[str, int]
    live_out: Dict[str, int]
    #: Upward-exposed uses and definitions of each block.
    uses: Dict[str, int]
    defs: Dict[str, int]
    #: Per-block ``([(write_mask, read_mask)], repeats)`` from
    #: :func:`~repro.analysis.bitset.pack_instructions`, filled by the operand
    #: walk that builds the solution and shared by every consumer walking the
    #: instructions.
    instructions: Dict[str, Tuple[List[Tuple[int, int]], int]]
    #: Opaque memo of the register allocator's instruction scan over this
    #: solution; :func:`repro.regalloc.live_ranges.scan_edges` owns its shape.
    scan: Optional[object] = None

    def instruction_masks(self, label: str) -> List[Tuple[int, int]]:
        """``(write_mask, read_mask)`` per instruction of block ``label``."""

        return self.instructions[label][0]


def compute_liveness(function: Function, machine=None) -> LivenessInfo:
    """Compute block-level liveness.

    ``machine`` optionally selects the persistent per-target base index
    (:func:`repro.analysis.bitset.base_register_index`), forked per call so
    per-function interning never leaks; the solution is independent of the
    resulting bit order either way.
    """

    if machine is None:
        index = RegisterIndex()
    else:
        index = base_register_index(machine).fork()
    # Parameters next so entry-live registers get low bits; purely cosmetic
    # for debugging, the solution is independent of bit order.
    for param in function.params:
        index.add(param)

    # One operand walk packs every instruction into (write, read) masks; the
    # block-level gen/kill masks and every later per-instruction consumer
    # (live ranges, interference, the final rewrite, lint) read those masks.
    uses: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    inst_masks: Dict[str, Tuple[List[Tuple[int, int]], int]] = {}
    for block in function.blocks:
        masks, repeats, use_mask, def_mask = pack_instructions(block.instructions, index)
        uses[block.label] = use_mask
        defs[block.label] = def_mask
        inst_masks[block.label] = (masks, repeats)

    live_in, live_out = solve_bit_dataflow(function, uses, defs)
    return LivenessInfo(
        index=index,
        live_in=live_in,
        live_out=live_out,
        uses=uses,
        defs=defs,
        instructions=inst_masks,
    )


def live_masks_at_each_instruction(liveness: LivenessInfo, label: str) -> List[int]:
    """Mask live *after* each instruction of block ``label``.

    Index ``i`` of the returned list is the mask immediately after
    instruction ``i``, walking backwards from the block's live-out mask.
    """

    masks = liveness.instruction_masks(label)
    live = liveness.live_out[label]
    after: List[int] = [0] * len(masks)
    for i in range(len(masks) - 1, -1, -1):
        after[i] = live
        write_mask, read_mask = masks[i]
        live = (live & ~write_mask) | read_mask
    return after
