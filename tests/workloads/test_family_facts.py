"""Pinned per-family facts of the scenario registry at seed 0 on ``parisc``.

Each family's size and control-flow shape, and the mean overhead ratio of
shrink-wrapping and the hierarchical placement against entry/exit placement,
are asserted exactly.  A change to a generator, to the register allocator or
to a placement technique that moves any of them shows up here by family.
The figures come from the full differential stress run (every family x every
registered target x every technique, verified), which must also report no
invariant violation and no soundness fallback.
"""

import pytest

from repro.analysis.loops import compute_loop_forest, is_reducible
from repro.evaluation.differential import run_stress
from repro.ir.instructions import Opcode
from repro.target.registry import get_target
from repro.workloads.scenarios import build_scenario, scenario_names

SEED = 0
TARGET = "parisc"

#: family -> (procedures, blocks, instructions, switches, irreducible,
#: max loop depth, optimized mean ratio, shrinkwrap mean ratio)
FACTS = {
    "call_web": (4, 12, 80, 0, 0, 0, 0.5, 0.5),
    "chaos_cfg": (6, 35, 104, 6, 2, 1, 1.0, 1.0278),
    "classic_mix": (4, 64, 391, 0, 0, 1, 0.9958, 1.0292),
    "deep_loop_nest": (4, 46, 132, 0, 0, 4, 1.0, 1.0),
    "irreducible_loop": (4, 16, 76, 0, 4, 0, 1.0, 1.0),
    "pressure_sweep": (6, 18, 87, 0, 0, 0, 1.0, 1.0),
    "switch_dispatch": (4, 41, 131, 8, 0, 1, 0.5021, 1.0),
}


def family_facts(name):
    procedures = build_scenario(name, seed=SEED, machine=get_target(TARGET))
    functions = [procedure.function for procedure in procedures]
    return (
        len(functions),
        sum(len(function) for function in functions),
        sum(function.instruction_count() for function in functions),
        sum(
            inst.opcode is Opcode.SWITCH
            for function in functions
            for inst in function.instructions()
        ),
        sum(not is_reducible(function) for function in functions),
        max(compute_loop_forest(function).max_depth() for function in functions),
    )


@pytest.fixture(scope="module")
def stress():
    return run_stress(seed=SEED)


def test_every_family_is_pinned():
    assert sorted(scenario_names()) == sorted(FACTS)


def test_stress_matrix_is_clean(stress):
    assert TARGET in stress.targets
    assert len(stress.violations) == 0
    assert stress.total_fallbacks() == 0


@pytest.mark.parametrize("name", sorted(FACTS))
def test_family_facts(stress, name):
    ratios = tuple(
        round(stress.mean_ratio(name, TARGET, technique), 4)
        for technique in ("optimized", "shrinkwrap")
    )
    assert family_facts(name) + ratios == FACTS[name]
