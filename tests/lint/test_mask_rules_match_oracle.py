"""Differential test: the mask-based liveness lint rules against set oracles.

R001 reads the session's ``defined_in`` masks, R002 and R010 the per-
instruction live masks.  Their diagnostics — block, instruction, message,
order and duplicates — must equal what the set-based reaching definitions
and set liveness in ``tests/oracles`` derive, on Hypothesis-generated
procedures (some with instructions deleted, so reads lose their
definitions) and on every scenario family at seeds 0-2, as generated and
once allocated and placed (R002 exempts the placed restores).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.session import CompilationSession
from repro.lint import RULES
from repro.pipeline.compiler import compile_procedure
from repro.spill.insertion import apply_placement
from repro.target.registry import get_target
from repro.workloads.scenarios import build_scenario, scenario_names

from tests.conftest import generated_procedures
from tests.oracles.lint import (
    callee_saved_pressure_reference,
    dead_definitions_reference,
    uninitialized_reads_reference,
)

#: ``tiny`` has few callee-saved registers, so R010 fires on it.
MACHINE = get_target("tiny")


def _findings(function):
    """``code -> [(block, instruction, message)]`` from the rules and the oracles."""

    ctx = CompilationSession(function, machine=MACHINE)
    shipped = {
        code: [(d.block, d.instruction, d.message) for d in RULES[code].run(ctx)]
        for code in ("R001", "R002", "R010")
    }
    reference = {
        "R001": list(uninitialized_reads_reference(function)),
        "R002": list(dead_definitions_reference(function)),
        "R010": list(callee_saved_pressure_reference(function, MACHINE)),
    }
    return shipped, reference


def _delete_instructions(function, doomed):
    """Drop the non-terminator instructions whose flat positions are ``doomed``."""

    position = 0
    for block in function.blocks:
        kept = []
        for inst in block.instructions:
            if position not in doomed or inst.is_terminator():
                kept.append(inst)
            position += 1
        block.instructions = kept


@given(generated_procedures(max_segments=5), st.sets(st.integers(0, 60), max_size=6))
def test_rules_match_oracles_on_random_procedures(procedure, doomed):
    function = procedure.function.clone()
    _delete_instructions(function, doomed)
    shipped, reference = _findings(function)
    assert shipped == reference


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", scenario_names())
def test_rules_match_oracles_on_scenario_families(family, seed):
    for procedure in build_scenario(family, seed=seed, machine=MACHINE):
        compiled = compile_procedure(procedure, MACHINE, techniques=("optimized",))
        placed = compiled.allocation.function.clone()
        apply_placement(placed, compiled.outcomes["optimized"].placement)
        for function in (procedure.function, placed):
            shipped, reference = _findings(function)
            assert shipped == reference, function.name


def test_the_sweep_exercises_every_rule():
    """The comparison is not vacuous: each rule fires somewhere in the sweep."""

    fired = {"R001": 0, "R002": 0, "R010": 0}
    for family in scenario_names():
        for procedure in build_scenario(family, seed=0, machine=MACHINE):
            function = procedure.function.clone()
            _delete_instructions(function, set(range(0, 200, 7)))
            shipped, _ = _findings(function)
            for code, found in shipped.items():
                fired[code] += len(found)
    assert all(fired.values()), fired
