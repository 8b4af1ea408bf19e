"""Property-based tests of the placement invariants on random workloads.

These are the paper's two central claims, checked on arbitrary generated
procedures and register allocations:

1. every technique produces a *valid* placement (the callee-saved convention
   state machine never conflicts on any path), and
2. the hierarchical placement's dynamic overhead is never greater than either
   shrink-wrapping's or the entry/exit placement's; under the execution-count
   model it is exactly the optimum, the min cut of ``tests/oracles/placement.py``.
"""

import pytest
from hypothesis import given, settings

from repro.regalloc.allocator import allocate_registers
from repro.spill.cost_models import make_cost_model
from repro.spill.entry_exit import place_entry_exit
from repro.spill.hierarchical import place_hierarchical
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.shrink_wrap import place_shrink_wrap
from repro.spill.verifier import collect_placement_errors
from repro.target.generic import tiny_target
from repro.target.parisc import parisc_target

from tests.conftest import generated_procedures
from tests.oracles.placement import min_cuts


def _allocate(procedure, machine):
    allocation = allocate_registers(procedure.function, machine, procedure.profile)
    return allocation.function, allocation.usage


@given(generated_procedures(max_segments=5))
def test_all_techniques_produce_valid_placements(procedure):
    function, usage = _allocate(procedure, parisc_target())
    placements = [
        place_entry_exit(function, usage),
        place_shrink_wrap(function, usage),
        place_shrink_wrap(function, usage, allow_jump_edges=True, avoid_loops=False),
        place_hierarchical(function, usage, procedure.profile, cost_model="jump_edge").placement,
        place_hierarchical(function, usage, procedure.profile, cost_model="execution_count").placement,
    ]
    for placement in placements:
        assert collect_placement_errors(function, usage, placement) == []


@given(generated_procedures(max_segments=5))
def test_hierarchical_is_never_worse_jump_edge_model(procedure):
    function, usage = _allocate(procedure, parisc_target())
    profile = procedure.profile
    baseline = placement_dynamic_overhead(function, profile, place_entry_exit(function, usage)).total
    shrink = placement_dynamic_overhead(function, profile, place_shrink_wrap(function, usage)).total
    optimized = placement_dynamic_overhead(
        function, profile, place_hierarchical(function, usage, profile).placement
    ).total
    tolerance = 1e-6 * max(1.0, baseline)
    assert optimized <= baseline + tolerance
    assert optimized <= shrink + tolerance


@pytest.mark.parametrize("machine", [parisc_target(), tiny_target()], ids=["parisc", "tiny"])
@given(procedure=generated_procedures(max_segments=5))
def test_execution_count_hierarchical_equals_the_min_cut(machine, procedure):
    """Section 4's optimality claim, register by register, against the exact
    optimum.  The cut is also no dearer than the entry/exit and shrink-wrap
    sets, so the hierarchical save/restore counts never exceed theirs."""

    function, usage = _allocate(procedure, machine)
    profile = procedure.profile
    model = make_cost_model("execution_count", machine)
    placements = [
        place_hierarchical(function, usage, profile, cost_model=model).placement,
        place_entry_exit(function, usage),
        place_shrink_wrap(function, usage),
    ]
    for register, cut in min_cuts(function, profile, usage, model).items():
        optimized, *alternatives = [
            sum(model.set_cost(function, profile, s) for s in placement.sets_for(register))
            for placement in placements
        ]
        assert optimized == pytest.approx(cut.cost, rel=1e-9), register
        assert all(cut.cost <= cost * (1 + 1e-9) for cost in alternatives), register


@given(generated_procedures(max_segments=4))
@settings(max_examples=15)
def test_invariants_hold_under_high_register_pressure(procedure):
    """A tiny register file forces heavy spilling; the guarantees still hold."""

    machine = tiny_target(3, 3)
    function, usage = _allocate(procedure, machine)
    profile = procedure.profile
    baseline = placement_dynamic_overhead(function, profile, place_entry_exit(function, usage)).total
    optimized_result = place_hierarchical(function, usage, profile)
    assert collect_placement_errors(function, usage, optimized_result.placement) == []
    optimized = placement_dynamic_overhead(function, profile, optimized_result.placement).total
    assert optimized <= baseline + 1e-6 * max(1.0, baseline)


@given(generated_procedures(max_segments=3))
@settings(max_examples=8)
def test_all_techniques_valid_on_every_registered_target(registered_machine, procedure):
    """The validity invariant holds on every registered machine description."""

    function, usage = _allocate(procedure, registered_machine)
    placements = [
        place_entry_exit(function, usage),
        place_shrink_wrap(function, usage),
        place_hierarchical(
            function, usage, procedure.profile, machine=registered_machine
        ).placement,
    ]
    for placement in placements:
        assert collect_placement_errors(function, usage, placement) == []


@given(generated_procedures(max_segments=3))
@settings(max_examples=8)
def test_hierarchical_never_worse_on_every_registered_target(registered_machine, procedure):
    """The never-worse guarantee holds under every target's cost weights."""

    function, usage = _allocate(procedure, registered_machine)
    profile = procedure.profile

    def total(placement):
        return placement_dynamic_overhead(
            function, profile, placement, registered_machine
        ).total

    baseline = total(place_entry_exit(function, usage))
    optimized = total(
        place_hierarchical(function, usage, profile, machine=registered_machine).placement
    )
    assert optimized <= baseline + 1e-6 * max(1.0, baseline)


@given(generated_procedures(max_segments=4))
@settings(max_examples=8)
def test_execution_count_model_never_worse_than_entry_exit_on_any_target(
    registered_machine, procedure
):
    """The paper's Section 4 optimality claim, measured *under the model*.

    With the execution-count cost model the hierarchical algorithm is
    optimal, so its total placement cost — every save/restore location
    charged its edge's execution count times the target's instruction
    weight, exactly what the model minimizes — can never exceed plain
    entry/exit placement's, on any registered machine description.
    """

    function, usage = _allocate(procedure, registered_machine)
    profile = procedure.profile
    model = make_cost_model("execution_count", registered_machine)

    def model_cost(placement):
        return sum(
            model.location_cost(function, profile, location)
            for location in placement.locations()
        )

    baseline = model_cost(place_entry_exit(function, usage))
    optimized = model_cost(
        place_hierarchical(
            function, usage, profile, cost_model=model, machine=registered_machine
        ).placement
    )
    assert optimized <= baseline + 1e-6 * max(1.0, baseline)


@given(generated_procedures(max_segments=4))
@settings(max_examples=15)
def test_placement_locations_lie_on_real_or_virtual_edges(procedure):
    function, usage = _allocate(procedure, parisc_target())
    valid_edges = {e.key for e in function.edges()}
    valid_edges.add(("__entry__", function.entry.label))
    valid_edges.add((function.exit.label, "__exit__"))
    result = place_hierarchical(function, usage, procedure.profile)
    for location in result.placement.locations():
        assert location.edge in valid_edges
