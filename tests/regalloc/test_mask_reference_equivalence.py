"""Differential tests: the mask-based regalloc hot path vs. the references.

The allocator's hot path (liveness bitsets, heap-based colouring, mask-based
callee-saved occupancy, the persistent per-target register index) must be
*bit-identical* to the straightforward set-based implementations it replaced.
Those are kept as oracles in ``tests/oracles/regalloc.py``; these tests run
both on generated procedures — via hypothesis and via the
deterministic scenario families on several targets — and assert exact
equality, not approximate agreement.
"""

from hypothesis import given

import repro.analysis.bitset as bitset_mod
from repro.analysis.bitset import base_register_index
from repro.ir.values import VirtualRegister
from repro.regalloc.allocator import allocate_registers
from repro.regalloc.callee_saved import compute_callee_saved_usage
from repro.regalloc.coloring import color_graph
from repro.regalloc.interference import build_interference_graph
from repro.regalloc.live_ranges import compute_live_ranges
from repro.target.generic import tiny_target
from repro.target.parisc import parisc_target
from repro.target.registry import get_target
from repro.workloads.catalog import get_catalog
from repro.workloads.scenarios import build_scenario_suite, scenario_names

from tests.conftest import generated_procedures
from tests.oracles.dataflow import register_sets
from tests.oracles.regalloc import (
    build_interference_graph_reference,
    color_graph_reference,
    compute_callee_saved_usage_reference,
    compute_live_ranges_reference,
)


def _scenario_procedures(machine, seed=3, count=1):
    suite = build_scenario_suite(seed=seed, count=count, machine=machine)
    for name in scenario_names():
        for procedure in suite[name]:
            yield name, procedure


def _assert_same_coloring(procedure, machine):
    function, profile = procedure.function, procedure.profile
    ranges = compute_live_ranges(function, profile, machine=machine)
    fast = color_graph(build_interference_graph(function, ranges.liveness), ranges, machine)
    slow_ranges = compute_live_ranges_reference(function, profile, machine=machine)
    slow_graph = build_interference_graph_reference(function, slow_ranges.liveness)
    reference = color_graph_reference(slow_graph, slow_ranges, machine)
    assert fast.assignment == reference.assignment
    assert fast.spilled == reference.spilled


@given(generated_procedures(max_segments=5))
def test_coloring_matches_reference_on_random_procedures(procedure):
    for machine in (parisc_target(), tiny_target()):
        _assert_same_coloring(procedure, machine)


def test_coloring_matches_reference_across_scenario_families():
    for target_name in ("parisc", "micro", "tiny"):
        machine = get_target(target_name)
        for _name, procedure in _scenario_procedures(machine):
            _assert_same_coloring(procedure, machine)


def _assert_same_usage(function, machine):
    fast = compute_callee_saved_usage(function, machine)
    reference = compute_callee_saved_usage_reference(function, machine)
    assert fast.used_registers() == reference.used_registers()
    for register in reference.used_registers():
        assert fast.blocks_for(register) == reference.blocks_for(register)


@given(generated_procedures(max_segments=5))
def test_callee_saved_usage_matches_reference(procedure):
    machine = parisc_target()
    allocation = allocate_registers(procedure.function, machine, procedure.profile)
    _assert_same_usage(allocation.function, machine)


def test_callee_saved_usage_matches_reference_across_scenario_families():
    for target_name in ("parisc", "micro"):
        machine = get_target(target_name)
        for _name, procedure in _scenario_procedures(machine):
            allocation = allocate_registers(
                procedure.function, machine, procedure.profile
            )
            _assert_same_usage(allocation.function, machine)


def _range_facts(ranges):
    """``register -> facts`` of a dense :class:`LiveRangeInfo`, read by bit."""

    index = ranges.liveness.index
    facts = {}
    for register in register_sets(index, ranges.node_mask):
        bit = index.bit_of(register)
        blocks = {label for label, mask in ranges.block_masks.items() if mask >> bit & 1}
        facts[register] = (
            blocks,
            ranges.definitions[bit],
            ranges.uses[bit],
            ranges.spill_cost[bit],
            bool(ranges.crossing_mask >> bit & 1),
            bool(ranges.parameter_mask >> bit & 1),
            bool(ranges.return_mask >> bit & 1),
        )
    return facts


def _assert_same_live_ranges(function, profile, machine):
    dense = _range_facts(compute_live_ranges(function, profile, machine=machine))
    reference = compute_live_ranges_reference(function, profile, machine=machine).ranges
    assert set(dense) == set(reference)
    for register, slow in reference.items():
        assert dense[register] == (
            slow.blocks, slow.definitions, slow.uses, slow.spill_cost,
            slow.crosses_call, slow.is_parameter, slow.used_by_return,
        ), register


@given(generated_procedures(max_segments=5))
def test_live_ranges_match_reference_on_random_procedures(procedure):
    _assert_same_live_ranges(procedure.function, procedure.profile, parisc_target())


def test_live_ranges_match_reference_across_scenarios_and_catalog():
    """The catalog's translated functions read one register twice in some
    instructions (``mul t, x, x``); each read is a reference of its own."""

    machine = parisc_target()
    for _name, procedure in _scenario_procedures(machine):
        _assert_same_live_ranges(procedure.function, procedure.profile, machine)
    catalog = get_catalog()
    for name in catalog.names():
        procedure = catalog.resolve(name).build(0, 0, machine)
        _assert_same_live_ranges(procedure.function, procedure.profile, machine)


@given(generated_procedures(max_segments=5))
def test_live_ranges_identical_with_and_without_persistent_index(procedure):
    """The forked per-target index must not change any live-range fact."""

    machine = parisc_target()
    with_index = compute_live_ranges(procedure.function, procedure.profile, machine=machine)
    without = compute_live_ranges(procedure.function, procedure.profile)
    assert _range_facts(with_index) == _range_facts(without)


@given(generated_procedures(max_segments=5))
def test_interference_nodes_never_leak_from_persistent_index(procedure):
    """A forked base index pre-interns v0..v63; none of those registers may
    appear as interference nodes unless the function actually mentions them."""

    machine = parisc_target()
    function = procedure.function
    ranges = compute_live_ranges(function, procedure.profile, machine=machine)
    graph = build_interference_graph(function, ranges.liveness)

    mentioned = {p for p in function.params if isinstance(p, VirtualRegister)}
    for block in function.blocks:
        for inst in block.instructions:
            for register in inst.registers():
                if isinstance(register, VirtualRegister):
                    mentioned.add(register)
    assert register_sets(graph.index, graph.node_mask) <= mentioned


def test_persistent_index_reuse_is_isolated_across_compiles():
    """Compiling B after A (shared per-target index) must equal compiling B
    with a pristine registry: nothing about A may leak into B's allocation."""

    machine = parisc_target()
    procedures = [p for _n, p in _scenario_procedures(machine, seed=7, count=1)]
    assert len(procedures) >= 2

    def allocate_all(fresh_registry_each_time):
        results = []
        for procedure in procedures:
            if fresh_registry_each_time:
                bitset_mod._BASE_INDEXES.clear()
            allocation = allocate_registers(
                procedure.function, machine, procedure.profile
            )
            results.append(allocation)
        return results

    bitset_mod._BASE_INDEXES.clear()
    shared = allocate_all(fresh_registry_each_time=False)
    fresh = allocate_all(fresh_registry_each_time=True)
    for a, b in zip(shared, fresh):
        assert a.assignment == b.assignment
        assert a.spilled_registers == b.spilled_registers
        assert a.usage == b.usage
        assert a.rounds == b.rounds


def test_base_register_index_is_cached_per_machine():
    bitset_mod._BASE_INDEXES.clear()
    machine = parisc_target()
    first = base_register_index(machine)
    assert base_register_index(machine) is first
    fork = first.fork()
    assert fork is not first
    # Growing the fork must not grow the shared base.
    before = len(first)
    fork.add(VirtualRegister("v999991"))
    assert len(first) == before
