"""The paper's optimality claim, checked against an exact min-cut oracle.

Under the execution-count cost model the hierarchical placement is optimal
(paper, Section 4): no valid placement of a callee-saved register has a
lower dynamic cost.  ``tests/oracles/placement.py`` computes that optimum
exactly, as an s–t minimum cut per register; these tests check that every
register of the paper's Table 1 suite and of every scenario family lands on
it, and that the cut's own placement is valid (so the oracle is not
optimising over placements the convention forbids).
"""

from functools import lru_cache

import pytest

from repro.pipeline.compiler import compile_procedure
from repro.spill.cost_models import ExecutionCountCostModel
from repro.spill.model import SpillPlacement
from repro.spill.verifier import verify_placement
from repro.target.parisc import parisc_target
from repro.workloads.scenarios import build_scenario, scenario_names
from repro.workloads.spec_like import build_suite

from tests.oracles.placement import min_cut_placement

GROUPS = ("table1",) + tuple(
    f"{family}/s{seed}" for family in scenario_names() for seed in range(3)
)


def _procedures(group, machine):
    if group == "table1":
        return [p for b in build_suite(scale=1.0, machine=machine) for p in b.procedures]
    family, seed = group.split("/s")
    return build_scenario(family, seed=int(seed), machine=machine)


@lru_cache(maxsize=None)
def _solved(group):
    """Per procedure: the compile, the model, and each register's (hierarchical, cut)."""

    machine = parisc_target()
    model = ExecutionCountCostModel(machine)
    solved = []
    for procedure in _procedures(group, machine):
        compiled = compile_procedure(
            procedure,
            machine=machine,
            cost_model=model,
            techniques=("optimized",),
            verify=False,
        )
        function = compiled.allocation.function
        placement = compiled.outcomes["optimized"].placement
        pairs = []
        for register in compiled.usage.used_registers():
            hierarchical = sum(
                model.set_cost(function, compiled.profile, srset)
                for srset in placement.sets_for(register)
            )
            cut = min_cut_placement(
                function, compiled.profile, register, compiled.usage.blocks_for(register), model
            )
            pairs.append((hierarchical, cut))
        solved.append((compiled, pairs))
    return solved


@pytest.mark.parametrize("group", GROUPS)
def test_min_cut_placement_is_valid(group):
    for compiled, pairs in _solved(group):
        placement = SpillPlacement(compiled.name, "min_cut")
        for _hierarchical, cut in pairs:
            placement.add_set(cut.placement)
        verify_placement(compiled.allocation.function, compiled.usage, placement)


@pytest.mark.parametrize("group", GROUPS)
def test_execution_count_hierarchical_equals_min_cut(group):
    registers = 0
    for compiled, pairs in _solved(group):
        for hierarchical, cut in pairs:
            registers += 1
            assert hierarchical == pytest.approx(cut.cost, rel=1e-9), (
                f"{compiled.name}/{cut.register.name}: hierarchical {hierarchical!r} "
                f"vs optimum {cut.cost!r}"
            )
    assert registers > 0
