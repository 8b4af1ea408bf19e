"""Live-variable analysis over registers.

Liveness drives interference-graph construction in the register allocator and
callee-saved occupancy computation after allocation.  The analysis is
block-level (live-in / live-out sets) with helpers to refine within a block.

The solution is computed on packed bitsets (:mod:`repro.analysis.bitset`):
registers are interned to bit positions once per function and the data-flow
iteration is integer arithmetic.  :class:`LivenessInfo` keeps the historical
``Set[Register]`` API — its dictionaries are lazy views that materialize a
block's set on first access — and additionally exposes the raw
:class:`~repro.analysis.bitset.BitLiveness` via :attr:`LivenessInfo.bits` for
mask-level consumers (the allocator hot path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.bitset import (
    BitDataflowProblem,
    BitLiveness,
    MaskSetView,
    RegisterIndex,
    base_register_index,
    bit_liveness_from_sets,
    live_masks_at_each_instruction,
    pack_instructions,
    solve_bit_dataflow,
)
from repro.analysis.dataflow import DataflowProblem, Direction, Meet
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Register


@dataclass
class LivenessInfo:
    """Result of live-variable analysis.

    ``live_in`` / ``live_out`` / ``uses`` / ``defs`` are **read-only**
    mappings; from :func:`compute_liveness` they are lazy views over the
    bitmask solution carried in :attr:`bits`, which is what the allocator
    hot path consumes.  Treat the solution as immutable — mutating a
    materialized set does not feed back into the masks (recompute liveness
    after changing the function instead).
    """

    live_in: Mapping[str, Set[Register]]
    live_out: Mapping[str, Set[Register]]
    uses: Mapping[str, Set[Register]]
    defs: Mapping[str, Set[Register]]
    #: The packed-bitset solution behind the set views (``None`` when the
    #: instance was constructed directly from plain sets).
    bits: Optional[BitLiveness] = None


def liveness_bits(function: Function, liveness: LivenessInfo) -> BitLiveness:
    """The bitmask representation of ``liveness``, building it if absent.

    Solutions from :func:`compute_liveness` carry their masks; hand-built
    :class:`LivenessInfo` instances (tests, external callers) get interned
    here on demand.
    """

    if liveness.bits is None:
        liveness.bits = bit_liveness_from_sets(function, liveness)
    return liveness.bits


def block_upward_exposed_uses(instructions: List[Instruction]) -> Tuple[Set[Register], Set[Register]]:
    """Return ``(upward_exposed_uses, defs)`` for a straight-line sequence."""

    exposed: Set[Register] = set()
    defined: Set[Register] = set()
    for inst in instructions:
        for reg in inst.registers_read():
            if reg not in defined:
                exposed.add(reg)
        defined.update(inst.registers_written())
    return exposed, defined


def liveness_dataflow_problem(function: Function) -> DataflowProblem:
    """The set-level gen/kill formulation of the liveness problem.

    :func:`compute_liveness` builds the equivalent bitmask problem directly;
    this formulation exists for the generic solvers — the differential tests
    pose it to both :func:`solve_dataflow` and the set-based reference solver
    in ``tests/oracles/dataflow.py``.
    """

    uses: Dict[str, Set[Register]] = {}
    defs: Dict[str, Set[Register]] = {}
    for block in function.blocks:
        exposed, defined = block_upward_exposed_uses(block.instructions)
        uses[block.label] = exposed
        defs[block.label] = defined
    return DataflowProblem(
        direction=Direction.BACKWARD,
        meet=Meet.UNION,
        gen=uses,
        kill=defs,
        boundary=set(),
    )


def compute_liveness(
    function: Function,
    call_clobbers: Optional[Dict[str, Set[Register]]] = None,
    machine=None,
) -> LivenessInfo:
    """Compute block-level liveness.

    ``call_clobbers`` optionally maps block labels to registers additionally
    *defined* (clobbered) within the block — used when reasoning about
    physical registers around calls.

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
    # block-level gen/kill sets and every later per-instruction consumer
    # (live ranges, interference, the final rewrite) read those masks.
    uses: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    inst_masks: Dict[str, Tuple[List[Tuple[int, int]], int]] = {}
    for block in function.blocks:
        masks, repeats, use_mask, def_mask = pack_instructions(block.instructions, index)
        if call_clobbers and block.label in call_clobbers:
            def_mask |= index.mask_of(call_clobbers[block.label])
        uses[block.label] = use_mask
        defs[block.label] = def_mask
        inst_masks[block.label] = (masks, repeats)

    # Function parameters are live at entry; return values are used at exits.
    problem = BitDataflowProblem(
        forward=False,
        union=True,
        gen=uses,
        kill=defs,
        boundary=0,
    )
    result = solve_bit_dataflow(function, problem)
    bits = BitLiveness(
        index=index,
        live_in=result.block_in,
        live_out=result.block_out,
        uses=uses,
        defs=defs,
        instructions=inst_masks,
    )
    return LivenessInfo(
        live_in=MaskSetView(bits.live_in, index),
        live_out=MaskSetView(bits.live_out, index),
        uses=MaskSetView(bits.uses, index),
        defs=MaskSetView(bits.defs, index),
        bits=bits,
    )


def live_at_each_instruction(
    function: Function, liveness: LivenessInfo, label: str
) -> List[Set[Register]]:
    """Registers live *after* each instruction of block ``label``.

    Index ``i`` of the returned list is the live set immediately after
    instruction ``i``; walking backwards from the block's live-out set.
    (Mask-level consumers use
    :func:`repro.analysis.bitset.live_masks_at_each_instruction` instead and
    skip the per-instruction set materialization.)
    """

    bits = liveness_bits(function, liveness)
    masks = live_masks_at_each_instruction(function, bits, label)
    return [bits.index.set_of(mask) for mask in masks]
