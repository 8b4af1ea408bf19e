"""The register-allocation driver.

``allocate_registers`` runs the classic Chaitin/Briggs loop:

1. compute live ranges and the interference graph,
2. colour the graph (caller-saved preferred, callee-saved for call-crossing
   ranges),
3. if some ranges could not be coloured, insert spill code for them and
   repeat.

The result bundles the rewritten function (virtual registers replaced by
physical ones, spill loads/stores inserted) together with the callee-saved
occupancy map that the spill-placement techniques consume.  The register
allocation — and therefore the allocator-inserted spill code — is identical
for every placement technique, exactly as in the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.ir.values import PhysicalRegister, Register
from repro.profiling.profile_data import EdgeProfile
from repro.regalloc.callee_saved import callee_saved_occupancy
from repro.regalloc.coloring import color_graph
from repro.regalloc.interference import build_interference_graph
from repro.regalloc.live_ranges import compute_live_ranges
from repro.regalloc.rewriter import (
    apply_assignment,
    demote_overflow_parameters,
    insert_spill_code,
    isolate_parameters,
    unassigned_virtual_registers,
)
from repro.spill.model import CalleeSavedUsage
from repro.target.machine import MachineDescription


class RegisterAllocationError(RuntimeError):
    """Raised when the allocator fails to converge."""


@dataclass
class AllocationResult:
    """Everything produced by one run of the register allocator."""

    function: Function
    machine: MachineDescription
    assignment: Dict[Register, PhysicalRegister] = field(default_factory=dict)
    usage: CalleeSavedUsage = field(default_factory=CalleeSavedUsage)
    spilled_registers: List[Register] = field(default_factory=list)
    rounds: int = 1

    @property
    def num_spilled(self) -> int:
        return len(self.spilled_registers)

    def callee_saved_registers_used(self) -> List[PhysicalRegister]:
        return self.usage.used_registers()

    def describe(self) -> str:
        return (
            f"allocation of {self.function.name!r}: {len(self.assignment)} ranges coloured, "
            f"{self.num_spilled} spilled, {len(self.callee_saved_registers_used())} "
            f"callee-saved registers used, {self.rounds} round(s)"
        )


def allocate_registers(
    function: Function,
    machine: MachineDescription,
    profile: Optional[EdgeProfile] = None,
    max_rounds: int = 12,
) -> AllocationResult:
    """Allocate physical registers for every virtual register of ``function``.

    ``function`` is left unchanged: the allocator rewrites a clone, which
    shares the instructions the rewrite does not touch.

    Parameters
    ----------
    profile:
        Optional edge profile; when present, spill costs are profile weighted
        (otherwise loop depth is used).
    max_rounds:
        Upper bound on build/colour/spill iterations.
    """

    work = function.clone()
    isolate_parameters(work)
    demote_overflow_parameters(work, machine)
    all_spilled: List[Register] = []

    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RegisterAllocationError(
                f"register allocation of {function.name!r} did not converge after "
                f"{max_rounds} rounds"
            )
        ranges = compute_live_ranges(work, profile, machine=machine)
        graph = build_interference_graph(work, ranges.liveness)
        coloring = color_graph(graph, ranges, machine)
        if coloring.is_complete:
            break
        # Spill the uncolourable ranges and try again; their reloads create
        # tiny live ranges which are always colourable eventually.
        already = set(all_spilled)
        fresh = [r for r in coloring.spilled if r not in already]
        if not fresh:
            raise RegisterAllocationError(
                f"register allocation of {function.name!r} is stuck re-spilling "
                f"{sorted(r.name for r in coloring.spilled)}"
            )
        insert_spill_code(work, fresh)
        all_spilled.extend(fresh)

    # The final round's liveness describes ``work`` up to the renaming the
    # rewrite applies, so it also yields the callee-saved occupancy.
    liveness = ranges.liveness
    assignment = coloring.assignment
    rewritten = apply_assignment(work, assignment, liveness)
    # Parameters live in their assigned physical registers from the entry on;
    # remap the signature so callers (and the interpreter) see the real
    # location of each argument.
    work.params = tuple(assignment.get(param, param) for param in work.params)
    leftovers = unassigned_virtual_registers(work, rewritten)
    if leftovers:
        raise RegisterAllocationError(
            f"virtual registers left after allocation of {function.name!r}: "
            + ", ".join(sorted(r.name for r in leftovers))
        )
    usage = callee_saved_occupancy(liveness, work.block_labels, machine, coloring.colour_masks)
    return AllocationResult(
        function=work,
        machine=machine,
        assignment=assignment,
        usage=usage,
        spilled_registers=all_spilled,
        rounds=rounds,
    )
