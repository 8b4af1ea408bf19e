"""Pinned per-family facts of the scenario registry at seed 0 on ``parisc``.

Each family's size and control-flow shape, and the mean overhead ratio of
shrink-wrapping and the hierarchical placement against entry/exit placement,
are asserted exactly.  A change to a generator, to the register allocator or
to a placement technique that moves any of them shows up here by family.
A ratio is the mean, over the family's procedures, of the technique's
callee-saved overhead over entry/exit's, compiled with verification under
the jump-edge model.
"""

import pytest

from repro.analysis.loops import compute_loop_forest, is_reducible
from repro.ir.instructions import Opcode
from repro.pipeline.compiler import compile_procedure
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


def mean_ratios(name):
    machine = get_target(TARGET)
    ratios = {"optimized": [], "shrinkwrap": []}
    for procedure in build_scenario(name, seed=SEED, machine=machine):
        compiled = compile_procedure(procedure, machine=machine, verify=True)
        baseline = compiled.callee_saved_overhead("baseline")
        for technique, values in ratios.items():
            overhead = compiled.callee_saved_overhead(technique)
            values.append(overhead / baseline if baseline > 0.0 else 1.0)
    return tuple(round(sum(values) / len(values), 4) for values in ratios.values())


def test_every_family_is_pinned():
    assert sorted(scenario_names()) == sorted(FACTS)


@pytest.mark.parametrize("name", sorted(FACTS))
def test_family_facts(name):
    assert family_facts(name) + mean_ratios(name) == FACTS[name]
