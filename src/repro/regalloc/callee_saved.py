"""Callee-saved occupancy: which blocks each callee-saved register is live in.

After the virtual-to-physical rewrite, a callee-saved register is *occupied*
in every block where it holds a program value — where it is defined, used, or
live across the block.  This occupancy map (the shaded blocks of the paper's
figures) is the input shared by all three placement techniques.

The computation runs on a packed-bitset liveness solution: register ``p``
occupies block ``B`` when ``p``'s mask meets ``live_in | live_out | uses |
defs`` of ``B``.  The block-level ``uses``/``defs`` masks cover exactly the
registers mentioned by the block's instructions, so this is the "live
through or mentioned" set computation, bit for bit.  The allocator never
solves liveness on its rewritten function: it passes its final round's
solution, where ``p``'s mask is ``p`` itself plus every virtual register
coloured ``p`` — the rewrite maps exactly those onto ``p``.  The set-based
computation on the rewritten function is kept as a test oracle in
``tests/oracles/regalloc.py``.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister
from repro.spill.model import CalleeSavedUsage
from repro.target.machine import MachineDescription


def callee_saved_occupancy(
    liveness: LivenessInfo,
    labels: Sequence[str],
    machine: MachineDescription,
    colour_masks: Mapping[PhysicalRegister, int],
) -> CalleeSavedUsage:
    """Occupancy from a liveness solution over ``labels``.

    ``colour_masks`` maps a physical register to the bits of the virtual
    registers assigned to it.  Registers enter the map in order of their
    first occupied block, then of their bit.
    """

    index = liveness.index
    registers = sorted((index.add(register), register) for register in machine.callee_saved)
    masks = [(1 << bit) | colour_masks.get(register, 0) for bit, register in registers]
    any_mask = 0
    for mask in masks:
        any_mask |= mask
    occupied: List[List[str]] = [[] for _ in registers]
    first_seen: List[int] = []
    live_in, live_out = liveness.live_in, liveness.live_out
    uses, defs = liveness.uses, liveness.defs
    for label in labels:
        present = (live_in[label] | live_out[label] | uses[label] | defs[label]) & any_mask
        if present:
            for number, mask in enumerate(masks):
                if present & mask:
                    if not occupied[number]:
                        first_seen.append(number)
                    occupied[number].append(label)
    return CalleeSavedUsage.from_blocks(
        {registers[number][1]: occupied[number] for number in first_seen}
    )


def compute_callee_saved_usage(
    function: Function, machine: MachineDescription
) -> CalleeSavedUsage:
    """Blocks occupied by each callee-saved register of an allocated ``function``."""

    liveness = compute_liveness(function, machine=machine)
    return callee_saved_occupancy(liveness, function.block_labels, machine, {})
