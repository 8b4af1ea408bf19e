"""The edge-mask placement engine agrees with the location-keyed reference.

Grouping save/restore sets, walking the callee-saved convention and summing
a placement's overhead run on numbered edges
(:class:`repro.ir.cfg.PlacementEdges`).  ``tests/oracles/spill.py`` keeps
the location-keyed versions they replaced.  For every technique, on Table 1,
on every scenario family (seeds 0-2, ``parisc`` and ``tiny``), on generated
procedures and on hand-built invalid sets, these tests assert:

* the same save/restore sets, as sorted edge lists, in the same order;
* the same convention errors, string for string, in the same order;
* the same :class:`~repro.spill.overhead.PlacementOverhead`, bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bitset import bit_positions
from repro.analysis.session import CompilationSession
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL
from repro.pipeline.compiler import compile_procedure
from repro.spill.hierarchical import place_hierarchical
from repro.spill.model import SaveRestoreSet, SpillKind, SpillLocation, SpillPlacement
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.sets import edge_set, group_edges, location_masks
from repro.spill.shrink_wrap import place_shrink_wrap
from repro.spill.verifier import register_errors
from repro.target.registry import resolve_target
from repro.workloads.programs import paper_example
from repro.workloads.scenarios import build_scenario, scenario_names
from repro.workloads.spec_like import build_suite

from tests.conftest import generated_procedures
from tests.oracles import spill as oracle

GROUPS = ("table1",) + tuple(
    f"{family}/s{seed}/{target}"
    for target in ("parisc", "tiny")
    for family in scenario_names()
    for seed in range(3)
)


@lru_cache(maxsize=None)
def _compiled(group):
    if group == "table1":
        machine = resolve_target("parisc")
        procedures = [p for b in build_suite(machine=machine) for p in b.procedures]
    else:
        family, seed, target = group.split("/")
        machine = resolve_target(target)
        procedures = build_scenario(family, seed=int(seed[1:]), machine=machine)
    return machine, [compile_procedure(p, machine=machine) for p in procedures]


def _canonical(locations):
    """Saves, then restores, each by edge key: the order the engine groups in."""

    return sorted(locations, key=lambda l: (not l.is_save(), l.edge))


def _edge_lists(sets):
    return [sorted(l.edge for l in srset.locations) for srset in sets]


def _mask_edge_lists(edges, pairs):
    return [
        sorted(edges.keys[n] for mask in pair for n in bit_positions(mask)) for pair in pairs
    ]


def _assert_grouping_agrees(cfg, register, locations):
    edges = cfg.placement_edges()
    saves, restores, strays = location_masks(edges, locations)
    assert not strays
    reference = oracle.build_save_restore_sets(cfg, register, _canonical(locations))
    assert _mask_edge_lists(edges, group_edges(edges, saves, restores)) == _edge_lists(reference)


def _assert_errors_agree(function, register, occupied, sets):
    shipped = register_errors(CompilationSession(function), register, occupied, sets)
    assert shipped == oracle.walk_register_convention(function.cfg(), register, occupied, sets)
    return shipped


def _assert_overhead_agrees(function, profile, placement, machine):
    shipped = placement_dynamic_overhead(function, profile, placement, machine)
    reference = oracle.placement_overhead(function.cfg(), profile, placement, machine)
    assert (shipped.save_count.hex(), shipped.restore_count.hex(), shipped.jump_count.hex()) == (
        reference.save_count.hex(),
        reference.restore_count.hex(),
        reference.jump_count.hex(),
    )
    assert shipped.num_jump_blocks == reference.num_jump_blocks


@pytest.mark.parametrize("group", GROUPS)
def test_every_technique_agrees_with_the_location_keyed_reference(group):
    machine, compiled = _compiled(group)
    for compile_ in compiled:
        function, usage, profile = compile_.allocation.function, compile_.usage, compile_.profile
        cfg = function.cfg()
        hierarchical = place_hierarchical(function, usage, profile, machine=machine)
        placements = [outcome.placement for outcome in compile_.outcomes.values()]
        placements += [hierarchical.initial_placement, hierarchical.placement]
        placements.append(
            place_shrink_wrap(function, usage, allow_jump_edges=True, avoid_loops=False)
        )
        for placement in placements:
            _assert_overhead_agrees(function, profile, placement, machine)
            for register in usage.used_registers():
                occupied = usage.blocks_for(register)
                sets = placement.sets_for(register)
                assert not _assert_errors_agree(function, register, occupied, sets)
                _assert_grouping_agrees(cfg, register, placement.locations_for(register))
                grouped = placement.technique.endswith("shrink_wrap")
                if grouped and register not in placement.fallback_registers:
                    reference = oracle.build_save_restore_sets(
                        cfg, register, _canonical(placement.locations_for(register))
                    )
                    assert sets == reference
        # Invalid variants: every set list missing one of its locations.
        for register, sets in hierarchical.placement.sets.items():
            occupied = usage.blocks_for(register)
            for index, srset in enumerate(sets):
                for location in srset.ordered_locations():
                    rest = srset.locations - {location}
                    broken = list(sets)
                    broken[index] = SaveRestoreSet(register, rest, srset.initial)
                    assert _assert_errors_agree(function, register, occupied, broken)


@settings(max_examples=40, deadline=None)
@given(generated_procedures(max_segments=5), st.data())
def test_random_location_sets_agree(procedure, data):
    machine = resolve_target("parisc")
    compiled = compile_procedure(procedure, machine=machine)
    function, usage = compiled.allocation.function, compiled.usage
    registers = usage.used_registers()
    if not registers:
        return
    register = data.draw(st.sampled_from(registers))
    cfg = function.cfg()
    edges = cfg.placement_edges()
    # No save on the procedure-exit edge: nothing executes after it.
    save_edges = data.draw(st.sets(st.integers(0, edges.exit - 1), max_size=4))
    restore_edges = data.draw(st.sets(st.integers(0, edges.exit), max_size=4))
    locations = [SpillLocation(register, SpillKind.SAVE, edges.keys[n]) for n in save_edges]
    locations += [SpillLocation(register, SpillKind.RESTORE, edges.keys[n]) for n in restore_edges]
    _assert_grouping_agrees(cfg, register, locations)

    saves, restores, _strays = location_masks(edges, locations)
    sets = [edge_set(edges, {}, register, s, r) for s, r in group_edges(edges, saves, restores)]
    if locations and data.draw(st.booleans()):
        # A second set repeating one location: a duplicate on its edge.
        repeated = data.draw(st.sampled_from(locations))
        sets.append(SaveRestoreSet.from_locations(register, [repeated]))
    _assert_errors_agree(function, register, usage.blocks_for(register), sets)
    placement = SpillPlacement(function.name, "random")
    placement.sets[register] = sets
    _assert_overhead_agrees(function, compiled.profile, placement, machine)


@pytest.fixture(scope="module")
def example():
    return paper_example()


def _location(example, kind, src, dst):
    return SpillLocation(example.register, kind, (src, dst))


def _hand_built_errors(example, sets):
    return _assert_errors_agree(
        example.function, example.register, example.usage.blocks_for(example.register), sets
    )


def _one_set(example, locations):
    return [SaveRestoreSet.from_locations(example.register, locations)]


def test_two_saves_on_one_edge(example):
    save = _location(example, SpillKind.SAVE, ENTRY_SENTINEL, "A")
    restore = _location(example, SpillKind.RESTORE, "P", EXIT_SENTINEL)
    sets = [SaveRestoreSet.from_locations(example.register, [save, restore])]
    sets.append(SaveRestoreSet.from_locations(example.register, [save]))
    errors = _hand_built_errors(example, sets)
    assert errors[0] == f"{example.register.name}: duplicate locations on edge ('__entry__', 'A')"
    placement = SpillPlacement(example.function.name, "hand")
    placement.sets[example.register] = sets
    _assert_overhead_agrees(example.function, example.profile, placement, None)


def test_a_save_and_a_restore_on_one_edge(example):
    locations = [
        _location(example, SpillKind.SAVE, "C", "D"),
        _location(example, SpillKind.RESTORE, "C", "D"),
        _location(example, SpillKind.RESTORE, "P", EXIT_SENTINEL),
    ]
    errors = _hand_built_errors(example, _one_set(example, locations))
    assert f"{example.register.name}: both save and restore on edge ('C', 'D')" in errors
    _assert_grouping_agrees(example.function.cfg(), example.register, locations)


def test_a_restore_with_no_save(example):
    restore = _location(example, SpillKind.RESTORE, "P", EXIT_SENTINEL)
    errors = _hand_built_errors(example, _one_set(example, [restore]))
    assert any("reached without a prior save" in e for e in errors)


def test_an_edge_not_in_the_cfg(example):
    stray = _location(example, SpillKind.SAVE, "A", "P")
    save = _location(example, SpillKind.SAVE, ENTRY_SENTINEL, "A")
    restore = _location(example, SpillKind.RESTORE, "P", EXIT_SENTINEL)
    sets = [SaveRestoreSet.from_locations(example.register, [save, restore, stray])]
    errors = _hand_built_errors(example, sets)
    assert errors[-1] == f"{example.register.name}: location {stray} does not lie on a CFG edge"
    placement = SpillPlacement(example.function.name, "hand")
    placement.sets[example.register] = sets
    with pytest.raises(KeyError):
        placement_dynamic_overhead(example.function, example.profile, placement)


def test_an_occupied_block_reached_unsaved(example):
    locations = [
        _location(example, SpillKind.SAVE, "C", "D"),
        _location(example, SpillKind.RESTORE, "D", "F"),
        _location(example, SpillKind.RESTORE, "E", "F"),
    ]
    errors = _hand_built_errors(example, _one_set(example, locations))
    unsaved = "block 'G' is occupied but the original value was never saved on some path"
    assert f"{example.register.name}: {unsaved}" in errors
