"""Instructions are shared values: placing spill code edits none of them.

``Function.clone`` copies each block's instruction list but shares the
``Instruction`` objects, and the allocator's output shares every instruction
its rewrite leaves alone (jumps, register-free ``nop``/``call``) with the
input function.  Applying a placement to a clone of the allocated function
must therefore leave both the allocated function and the input function
exactly as they were — in particular, splitting a jump edge has to replace
the source block's terminator instead of retargeting the shared one.
"""

from __future__ import annotations

from repro.pipeline.compiler import compile_procedure
from repro.spill.insertion import apply_placement
from repro.workloads.scenarios import build_scenario_suite
from repro.workloads.spec_like import build_suite


def _procedures():
    for benchmark in build_suite():
        yield from benchmark.procedures
    for family in build_scenario_suite(count=1).values():
        yield from family


def test_placements_on_clones_leave_allocated_and_input_functions_intact():
    checked = jump_splits = 0
    for procedure in _procedures():
        compiled = compile_procedure(procedure)
        allocated = compiled.allocation.function
        input_text = str(procedure.function)
        allocated_text = str(allocated)
        for outcome in compiled.outcomes.values():
            final = allocated.clone()
            jump_splits += apply_placement(final, outcome.placement).inserted_jumps
            assert str(allocated) == allocated_text, (procedure.function.name, outcome.technique)
            assert str(procedure.function) == input_text, procedure.function.name
            checked += 1
    # The sweep must retarget terminators, or it proves nothing.
    assert jump_splits > 0
    assert checked >= 3 * 172
