"""Live ranges of virtual registers.

A live range aggregates everything the allocator needs to know about one
virtual register: where it is live, whether it is live across a call (in
which case a caller-saved register would be clobbered, so the range needs a
callee-saved register or a stack slot), how often it is referenced, and its
spill cost.

Each allocation round numbers its registers once — the liveness solution's
:class:`~repro.analysis.bitset.RegisterIndex` bit — and keeps every fact in
flat lists or masks indexed by that bit.  One backward walk per block
(:func:`scan_instructions`) derives the live-after mask of each instruction
from the packed ``(write, read)`` masks and, in the same pass, counts
references, accumulates spill costs, flags call-crossing and returned
ranges and records the Chaitin interference edges, which
:func:`scan_edges` hands to
:func:`repro.regalloc.interference.build_interference_graph`.  A
register's facts are read at its ``RegisterIndex.bit_of`` position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.bitset import bit_positions
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.loops import compute_loop_forest
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.values import VirtualRegister
from repro.profiling.profile_data import EdgeProfile


@dataclass
class LiveRangeInfo:
    """One round's live ranges, indexed by the liveness solution's bits.

    Lists are as long as the register index was when the scan ran; masks
    are over the same bits.
    """

    liveness: LivenessInfo
    #: Virtual registers the function mentions (parameters and operands).
    node_mask: int
    definitions: List[int]
    uses: List[int]
    spill_cost: List[float]
    #: Ranges live across a call, read by a ``ret``, and incoming parameters.
    crossing_mask: int
    return_mask: int
    parameter_mask: int
    #: Virtual registers live in, defined in or used in each block.
    block_masks: Dict[str, int]


class InterferenceEdges(NamedTuple):
    """The Chaitin interference graph of one scan, over liveness bits."""

    #: Virtual registers the function mentions.
    node_mask: int
    #: Neighbour mask per bit, symmetric.
    adjacency: List[int]
    #: Distinct copy-related ``(destination, source)`` bit pairs, in
    #: discovery order.
    moves: List[Tuple[int, int]]


def scan_edges(function: Function, liveness: LivenessInfo) -> InterferenceEdges:
    """The interference edges over ``liveness``, which must describe ``function``.

    An allocation round's :func:`compute_live_ranges` leaves them on its
    liveness solution; any other solution is scanned here (the spill-cost
    weights do not affect the edges).
    """

    if liveness.scan is None:
        scan_instructions(function, liveness, dict.fromkeys(function.block_labels, 0.0))
    return liveness.scan


def scan_instructions(
    function: Function, liveness: LivenessInfo, weights: Dict[str, float]
) -> LiveRangeInfo:
    """Walk every block backwards once, from its live-out mask.

    At each instruction the running mask is the set live after it, which
    is all the Chaitin construction needs: a written virtual register
    interferes with everything live after the write except itself and —
    for a move — the move's source.  References are counted from the
    masks; the rare instruction that names a register twice (flagged by
    :func:`~repro.analysis.bitset.pack_instructions`) is counted from its
    operand tuples, so ``add v1, v2, v2`` still counts two uses.  Spill
    cost adds the block weight once per reference, in block order, so the
    floating-point sums match a forward operand walk exactly.  The
    interference edges are also left on the liveness solution, where
    :func:`scan_edges` finds them.
    """

    index = liveness.index
    bit_of = index.bit_of
    vmask = index.virtual_mask
    size = len(index)
    definitions = [0] * size
    uses = [0] * size
    spill_cost = [0.0] * size
    adjacency = [0] * size
    moves: Dict[Tuple[int, int], None] = {}  # an insertion-ordered set
    crossing = returns = node_mask = 0
    block_masks: Dict[str, int] = {}
    live_in = liveness.live_in
    MOV, CALL, RET = Opcode.MOV, Opcode.CALL, Opcode.RET

    for block in function.blocks:
        label = block.label
        weight = weights[label]
        masks, repeats = liveness.instructions[label]
        live = liveness.live_out[label]
        present = (live_in[label] | live) & vmask
        instructions = block.instructions
        position = len(masks)
        while position:
            position -= 1
            write_mask, read_mask = masks[position]
            written = write_mask & vmask
            read = read_mask & vmask
            inst = instructions[position]
            opcode = inst.opcode
            if written or read:
                present |= written | read
                if repeats >> position & 1:
                    for reg in inst.defs:
                        if isinstance(reg, VirtualRegister):
                            definitions[bit_of(reg)] += 1
                            spill_cost[bit_of(reg)] += weight
                    for reg in inst.registers_read():
                        if isinstance(reg, VirtualRegister):
                            uses[bit_of(reg)] += 1
                            spill_cost[bit_of(reg)] += weight
                else:
                    mask = written
                    while mask:
                        low = mask & -mask
                        bit = low.bit_length() - 1
                        definitions[bit] += 1
                        spill_cost[bit] += weight
                        mask ^= low
                    mask = read
                    while mask:
                        low = mask & -mask
                        bit = low.bit_length() - 1
                        uses[bit] += 1
                        spill_cost[bit] += weight
                        mask ^= low
                if written:
                    live_virtual = live & vmask
                    source = 0
                    if opcode is MOV and read and isinstance(inst.uses[0], VirtualRegister):
                        source = 1 << bit_of(inst.uses[0])
                    mask = written
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        dst = low.bit_length() - 1
                        # Results of one instruction interfere with each
                        # other; a destination never with itself.
                        others = (live_virtual | written) & ~low
                        if others & source:
                            # A move's source and destination do not
                            # interfere through the move itself.
                            others ^= source
                            moves[dst, source.bit_length() - 1] = None
                        adjacency[dst] |= others
            if opcode is CALL:
                crossing |= live & vmask & ~write_mask
            elif opcode is RET:
                returns |= read
            live = (live & ~write_mask) | read_mask
        block_masks[label] = present
        node_mask |= present

    # Parameters are all defined at once by the calling convention on entry,
    # so each interferes with everything live into the entry block — in
    # particular with every other live-in parameter, which would otherwise
    # carry no interference at all (parameters have no defining instruction)
    # and could be assigned one shared register.
    parameters = 0
    for param in function.params:
        if isinstance(param, VirtualRegister):
            parameters |= 1 << bit_of(param)
            definitions[bit_of(param)] += 1
    if parameters:
        entry = function.entry.label
        entry_live = live_in.get(entry, 0) & vmask
        for bit in bit_positions(parameters):
            adjacency[bit] |= (entry_live | parameters) & ~(1 << bit)
        block_masks[entry] |= parameters
        node_mask |= parameters

    # Edges were recorded from the defining side only; add the transpose.
    # Moves are distinct ``(destination, source)`` pairs in discovery order.
    for bit, mask in enumerate(adjacency[:]):
        for other in bit_positions(mask):
            adjacency[other] |= 1 << bit
    liveness.scan = InterferenceEdges(node_mask, adjacency, list(moves))

    return LiveRangeInfo(
        liveness, node_mask, definitions, uses, spill_cost, crossing, returns, parameters,
        block_masks,
    )


def compute_live_ranges(
    function: Function,
    profile: Optional[EdgeProfile] = None,
    machine=None,
) -> LiveRangeInfo:
    """Build live ranges for all virtual registers of ``function``.

    Spill costs weigh each reference by its block's profile count, or by
    10^loop-depth without a profile.  ``machine`` optionally selects the
    persistent per-target register index for the liveness solve (see
    :func:`repro.analysis.liveness.compute_liveness`).
    """

    liveness = compute_liveness(function, machine=machine)
    if profile is not None:
        weights = {
            label: max(count, 0.0) for label, count in profile.block_counts(function).items()
        }
    else:
        loops = compute_loop_forest(function)
        weights = {label: float(10 ** loops.loop_depth(label)) for label in function.block_labels}
    return scan_instructions(function, liveness, weights)
