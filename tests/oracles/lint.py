"""Set-based reference versions of the liveness-driven lint rules.

Lint rules R001, R002 and R010 read register masks: the session's
``defined_in`` masks and :func:`~repro.analysis.liveness.live_masks_at_each_instruction`.
These are the formulations they replaced, over the set-based reaching
definitions and set liveness of :mod:`tests.oracles.dataflow`.  Each yields
``(block, instruction, message)`` in the order the shipped rule yields its
diagnostics, duplicates included.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.ir.function import Function, reachable_blocks
from repro.ir.values import VirtualRegister

from tests.oracles.dataflow import reaching_definitions, reference_live_after, reference_liveness

Finding = Tuple[str, int, str]


def uninitialized_reads_reference(function: Function) -> Iterator[Finding]:
    """R001: reads of registers no definition (or parameter) reaches."""

    params = set(function.params)
    reaching = reaching_definitions(function)
    reachable = reachable_blocks(function)
    for block in function.blocks:
        if block.label not in reachable:
            continue
        reached = {d[2] for d in reaching.block_in[block.label]}
        for index, inst in enumerate(block.instructions):
            for reg in inst.registers_read():
                if reg not in params and reg not in reached:
                    yield block.label, index, f"read of register {reg} with no reaching definition"
            reached.update(inst.registers_written())


def dead_definitions_reference(function: Function) -> Iterator[Finding]:
    """R002: definitions (outside calls and overhead) dead right after the write."""

    liveness = reference_liveness(function)
    reachable = reachable_blocks(function)
    for block in function.blocks:
        if block.label not in reachable:
            continue
        live_after = reference_live_after(function, liveness, block.label)
        for index, inst in enumerate(block.instructions):
            if inst.is_call() or inst.is_overhead():
                continue
            for reg in inst.registers_written():
                if reg not in live_after[index]:
                    yield block.label, index, f"definition of register {reg} is never used"


def callee_saved_pressure_reference(function: Function, machine) -> Iterator[Finding]:
    """R010: calls with more virtual registers live across than callee-saved ones."""

    budget = machine.num_callee_saved
    liveness = reference_liveness(function)
    reachable = reachable_blocks(function)
    for block in function.blocks:
        if block.label not in reachable:
            continue
        live_after = reference_live_after(function, liveness, block.label)
        for index, inst in enumerate(block.instructions):
            if not inst.is_call():
                continue
            across = {
                reg
                for reg in live_after[index]
                if isinstance(reg, VirtualRegister) and reg not in inst.defs
            }
            if len(across) > budget:
                names = ", ".join(str(r) for r in sorted(across, key=str))
                yield block.label, index, (
                    f"{len(across)} virtual registers live across call to "
                    f"{inst.target.name if inst.target else '?'} exceed the "
                    f"{budget} callee-saved registers: {names}"
                )
