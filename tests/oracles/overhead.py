"""Dynamic spill overhead accounting on rewritten functions (test oracle).

The paper's Figure 5 reports, per benchmark, the total dynamic spill code
overhead: every load/store generated by the register allocator plus every
callee-saved save/restore instruction (and any jump instruction needed to
materialize spill code in a jump block), each weighted by its dynamic
execution count.

:func:`measure_dynamic_overhead` computes this analytically from a profile
for a function that has already been rewritten by the allocator and
:func:`repro.spill.insertion.apply_placement`.
:func:`measure_dynamic_overhead_by_execution` measures the same quantity by
actually running the function in the interpreter; the two agree whenever the
profile describes the executed path, which is what the integration tests
check.  Both are set-based cross-checks of the shipped placement-level
accounting in :mod:`repro.spill.overhead`, so they live with the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set

from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.profiling.interpreter import ExecutionResult, Interpreter
from repro.profiling.profile_data import EdgeProfile


@dataclass(frozen=True)
class OverheadBreakdown:
    """Dynamic overhead split by origin."""

    allocator_spill: float
    callee_saves: float
    callee_restores: float
    overhead_jumps: float

    @property
    def callee_saved_total(self) -> float:
        return self.callee_saves + self.callee_restores + self.overhead_jumps

    @property
    def total(self) -> float:
        return self.allocator_spill + self.callee_saved_total

    def __str__(self) -> str:
        return (
            f"allocator={self.allocator_spill:g} saves={self.callee_saves:g} "
            f"restores={self.callee_restores:g} jumps={self.overhead_jumps:g} "
            f"(total {self.total:g})"
        )


def measure_dynamic_overhead(
    function: Function,
    profile: EdgeProfile,
    overhead_jump_blocks: Optional[Iterable[str]] = None,
) -> OverheadBreakdown:
    """Profile-weighted overhead of a rewritten function.

    ``overhead_jump_blocks`` names blocks that were created purely to hold
    spill code on jump edges; the jump instruction terminating each of them is
    counted as overhead (it would not exist without the spill code).
    """

    jump_blocks: Set[str] = set(overhead_jump_blocks or ())
    block_counts = profile.block_counts(function)

    allocator_spill = 0.0
    callee_saves = 0.0
    callee_restores = 0.0
    overhead_jumps = 0.0

    for block in function.blocks:
        weight = block_counts.get(block.label, 0.0)
        for inst in block.instructions:
            if inst.purpose == "spill" and inst.is_memory():
                allocator_spill += weight
            elif inst.purpose == "callee_save":
                callee_saves += weight
            elif inst.purpose == "callee_restore":
                callee_restores += weight
            elif inst.opcode is Opcode.JMP and block.label in jump_blocks:
                overhead_jumps += weight

    return OverheadBreakdown(
        allocator_spill=allocator_spill,
        callee_saves=callee_saves,
        callee_restores=callee_restores,
        overhead_jumps=overhead_jumps,
    )


def measure_dynamic_overhead_by_execution(
    function: Function,
    interpreter: Interpreter,
    args: Sequence[int] = (),
    overhead_jump_blocks: Optional[Iterable[str]] = None,
) -> OverheadBreakdown:
    """Measure overhead by executing the function and counting instructions."""

    result = interpreter.run(function, args=args)
    jump_blocks: Set[str] = set(overhead_jump_blocks or ())
    overhead_jumps = 0.0
    for label in jump_blocks:
        overhead_jumps += result.block_counts.get(label, 0)

    return OverheadBreakdown(
        allocator_spill=float(result.purpose_counts.get("spill", 0)),
        callee_saves=float(result.purpose_counts.get("callee_save", 0)),
        callee_restores=float(result.purpose_counts.get("callee_restore", 0)),
        overhead_jumps=overhead_jumps,
    )
