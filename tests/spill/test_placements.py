"""Tests for the placement data model, entry/exit baseline and shrink-wrapping."""

import pytest

from repro.analysis.bitset import bit_positions

from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL
from repro.spill.cost_models import requires_jump_block
from repro.spill.entry_exit import place_entry_exit
from repro.spill.model import CalleeSavedUsage, SaveRestoreSet, SpillKind, SpillLocation
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.sets import group_edges, location_masks
from repro.spill.shrink_wrap import (
    place_shrink_wrap,
    save_restore_edges,
    shrink_wrap_edges,
)
from repro.spill.verifier import collect_placement_errors, verify_placement
from repro.workloads.programs import diamond_function, figure1_function, loop_function, paper_example

from tests.oracles.spill import compute_anticipation_availability


@pytest.fixture(scope="module")
def example():
    return paper_example()


def edge_keys(function, masks):
    """The ``(save keys, restore keys)`` sets of a ``(saves, restores)`` mask pair."""

    edges = function.cfg().placement_edges()
    return tuple({edges.keys[n] for n in bit_positions(mask)} for mask in masks)


class TestModel:
    def test_location_classification(self, example):
        register = example.register
        entry_loc = SpillLocation(register, SpillKind.SAVE, (ENTRY_SENTINEL, "A"))
        exit_loc = SpillLocation(register, SpillKind.RESTORE, ("P", EXIT_SENTINEL))
        inner = SpillLocation(register, SpillKind.SAVE, ("C", "D"))
        assert entry_loc.is_at_procedure_entry() and entry_loc.is_on_virtual_edge()
        assert exit_loc.is_at_procedure_exit()
        assert not inner.is_on_virtual_edge()

    def test_save_restore_set_rejects_foreign_locations(self, example, parisc):
        other = parisc.callee_saved[1]
        with pytest.raises(ValueError):
            SaveRestoreSet.from_locations(
                example.register,
                [SpillLocation(other, SpillKind.SAVE, ("C", "D"))],
            )

    def test_set_containment_by_blocks(self, example):
        register = example.register
        srset = SaveRestoreSet.from_locations(
            register,
            [
                SpillLocation(register, SpillKind.SAVE, ("C", "D")),
                SpillLocation(register, SpillKind.RESTORE, ("E", "F")),
            ],
        )
        assert srset.is_contained_in_blocks(frozenset("CDEF"))
        assert not srset.is_contained_in_blocks(frozenset("CD"))

    def test_usage_helpers(self, example, parisc):
        usage = example.usage
        assert usage.used_registers() == [example.register]
        assert usage.is_occupied(example.register, "D")
        assert not usage.is_occupied(example.register, "A")
        assert not usage.is_occupied(parisc.callee_saved[5], "D")
        assert bool(usage)
        assert usage.restricted_to(["D"]).blocks_for(example.register) == frozenset({"D"})

    def test_placement_queries(self, example):
        placement = place_entry_exit(example.function, example.usage)
        assert placement.registers() == [example.register]
        assert len(placement.saves()) == 1
        assert len(placement.restores()) == 1
        assert placement.num_locations() == 2
        assert set(placement.edges_with_locations()) == {
            (ENTRY_SENTINEL, "A"),
            ("P", EXIT_SENTINEL),
        }


class TestEntryExit:
    def test_paper_example_cost_is_200(self, example):
        placement = place_entry_exit(example.function, example.usage)
        verify_placement(example.function, example.usage, placement)
        assert placement_dynamic_overhead(example.function, example.profile, placement).total == 200

    def test_unused_registers_get_no_locations(self, example, parisc):
        usage = CalleeSavedUsage.from_blocks({parisc.callee_saved[2]: []})
        placement = place_entry_exit(example.function, usage)
        assert placement.num_locations() == 0

    def test_every_used_register_gets_one_pair(self, example, parisc):
        usage = CalleeSavedUsage.from_blocks(
            {parisc.callee_saved[0]: ["D"], parisc.callee_saved[1]: ["G", "K"]}
        )
        placement = place_entry_exit(example.function, usage)
        assert placement.num_locations() == 4
        verify_placement(example.function, usage, placement)


class TestAnticipationAvailability:
    def test_flow_solutions_on_paper_example(self, example):
        flow = compute_anticipation_availability(example.function, frozenset("DEGKN"))
        assert flow.ant_in["D"] and flow.ant_in["E"]
        assert not flow.ant_in["F"]
        assert not flow.ant_in["A"]           # not all paths reach an occupied block
        assert flow.av_out["E"] and flow.av_out["D"]
        assert not flow.av_in["F"]            # only some predecessors are occupied
        assert not flow.av_out["P"]

    def test_save_restore_edges_for_left_region(self, example):
        saves, restores = edge_keys(
            example.function, save_restore_edges(example.function, frozenset("DE"))
        )
        assert ("C", "D") in saves
        assert ("D", "F") in restores and ("E", "F") in restores
        assert len(saves) == 1 and len(restores) == 2


class TestShrinkWrap:
    def test_chow_original_matches_paper(self, example):
        placement = place_shrink_wrap(example.function, example.usage)
        verify_placement(example.function, example.usage, placement)
        overhead = placement_dynamic_overhead(example.function, example.profile, placement)
        assert overhead.total == 250
        edges = {l.edge for l in placement.locations()}
        # Saves before C, G, K, N and restores after F, G, K, N.
        assert ("B", "C") in edges and ("F", "H") in edges
        assert ("H", "G") in edges and ("G", "J") in edges
        assert ("I", "K") in edges and ("K", "M") in edges
        assert ("M", "N") in edges and ("N", "O") in edges
        assert overhead.num_jump_blocks == 0

    def test_modified_variant_keeps_jump_edge_restore(self, example):
        saves, restores = edge_keys(example.function, shrink_wrap_edges(
            example.function, frozenset("DE"), allow_jump_edges=True, avoid_loops=False
        ))
        assert ("D", "F") in restores
        assert ("C", "D") in saves

    def test_original_variant_avoids_required_jump_blocks(self, example):
        saves, restores = edge_keys(example.function, shrink_wrap_edges(
            example.function, frozenset("DE"), allow_jump_edges=False, avoid_loops=False
        ))
        for edge in saves | restores:
            assert not requires_jump_block(example.function, edge)

    def test_loop_avoidance_keeps_spill_code_out_of_loops(self):
        function = loop_function()
        usage = frozenset({"body"})
        saves, restores = edge_keys(
            function, shrink_wrap_edges(function, usage, allow_jump_edges=False, avoid_loops=True)
        )
        loop_blocks = {"header", "body"}
        for src, dst in saves | restores:
            assert not (src in loop_blocks and dst in loop_blocks)

    def test_without_loop_avoidance_spill_code_lands_in_the_loop(self):
        function = loop_function()
        saves, restores = edge_keys(function, shrink_wrap_edges(
            function, frozenset({"body"}), allow_jump_edges=True, avoid_loops=False
        ))
        assert ("header", "body") in saves

    def test_figure1_cold_vs_hot_crossover(self):
        # Cold occupancy: shrink-wrapping wins; hot occupancy: entry/exit wins.
        for hot, expect_shrink_cheaper in ((False, True), (True, False)):
            function, profile, usage = figure1_function(hot_allocation=hot)
            baseline = placement_dynamic_overhead(
                function, profile, place_entry_exit(function, usage)
            ).total
            shrink = placement_dynamic_overhead(
                function, profile, place_shrink_wrap(function, usage)
            ).total
            assert (shrink < baseline) == expect_shrink_cheaper

    def test_empty_usage_gives_empty_placement(self, example):
        placement = place_shrink_wrap(example.function, CalleeSavedUsage())
        assert placement.num_locations() == 0


class TestSaveRestoreSets:
    def test_paper_example_initial_sets(self, example):
        placement = place_shrink_wrap(
            example.function, example.usage, allow_jump_edges=True, avoid_loops=False
        )
        sets = placement.sets_for(example.register)
        assert len(sets) == 4
        by_edges = {frozenset(s.edges()) for s in sets}
        assert frozenset({("C", "D"), ("D", "F"), ("E", "F")}) in by_edges   # Set 1
        assert frozenset({("H", "G"), ("G", "J")}) in by_edges               # Set 2
        assert frozenset({("I", "K"), ("K", "M")}) in by_edges               # Set 3
        assert frozenset({("M", "N"), ("N", "O")}) in by_edges               # Set 4

    def test_sets_share_registers_but_not_locations(self, example):
        placement = place_shrink_wrap(
            example.function, example.usage, allow_jump_edges=True, avoid_loops=False
        )
        seen = set()
        for srset in placement.sets_for(example.register):
            assert not (seen & srset.locations)
            seen |= srset.locations

    def test_restore_shared_by_two_saves_merges_sets(self, example):
        register = example.register
        locations = [
            SpillLocation(register, SpillKind.SAVE, ("C", "D")),
            SpillLocation(register, SpillKind.SAVE, ("B", "H")),
            SpillLocation(register, SpillKind.RESTORE, ("H", "J")),
            SpillLocation(register, SpillKind.RESTORE, ("H", "G")),
        ]
        # Both saves reach the restores through H, so everything is one set.
        edges = example.function.cfg().placement_edges()
        saves, restores, _strays = location_masks(edges, locations)
        assert group_edges(edges, saves, restores) == [(saves, restores)]


class TestPlacementVerifier:
    def test_detects_missing_save(self, example):
        register = example.register
        placement = place_entry_exit(example.function, example.usage)
        placement.replace_sets(register, [
            SaveRestoreSet.from_locations(
                register, [SpillLocation(register, SpillKind.RESTORE, ("P", EXIT_SENTINEL))]
            )
        ])
        errors = collect_placement_errors(example.function, example.usage, placement)
        assert any("without a prior save" in e or "never saved" in e for e in errors)

    def test_detects_missing_restore(self, example):
        register = example.register
        placement = place_entry_exit(example.function, example.usage)
        placement.replace_sets(register, [
            SaveRestoreSet.from_locations(
                register, [SpillLocation(register, SpillKind.SAVE, (ENTRY_SENTINEL, "A"))]
            )
        ])
        errors = collect_placement_errors(example.function, example.usage, placement)
        assert any("missing restore" in e for e in errors)

    def test_detects_partial_path_coverage(self, example):
        register = example.register
        placement = place_entry_exit(example.function, example.usage)
        placement.replace_sets(register, [
            SaveRestoreSet.from_locations(
                register,
                [
                    SpillLocation(register, SpillKind.SAVE, ("C", "D")),
                    SpillLocation(register, SpillKind.RESTORE, ("D", "F")),
                    SpillLocation(register, SpillKind.RESTORE, ("E", "F")),
                ],
            )
        ])
        errors = collect_placement_errors(example.function, example.usage, placement)
        # Blocks G, K, N are occupied but never covered by a save.
        assert any("never saved" in e for e in errors)

    def test_detects_location_off_the_cfg(self, example):
        register = example.register
        placement = place_entry_exit(example.function, example.usage)
        placement.add_set(
            SaveRestoreSet.from_locations(
                register,
                [
                    SpillLocation(register, SpillKind.SAVE, ("A", "Z")),
                    SpillLocation(register, SpillKind.RESTORE, ("Z", "P")),
                ],
            )
        )
        errors = collect_placement_errors(example.function, example.usage, placement)
        assert any("does not lie on a CFG edge" in e for e in errors)

    def test_valid_placements_have_no_errors(self, example):
        for placement in (
            place_entry_exit(example.function, example.usage),
            place_shrink_wrap(example.function, example.usage),
            place_shrink_wrap(example.function, example.usage, allow_jump_edges=True, avoid_loops=False),
        ):
            assert collect_placement_errors(example.function, example.usage, placement) == []
