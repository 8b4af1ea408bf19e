"""Tests for cost models, the hierarchical algorithm (paper numbers) and insertion."""

import pytest

from repro.analysis.session import CompilationSession
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL
from repro.profiling.interpreter import Interpreter
from repro.spill.cost_models import (
    ExecutionCountCostModel,
    JumpEdgeCostModel,
    make_cost_model,
    requires_jump_block,
)
from repro.spill.entry_exit import place_entry_exit
from repro.spill.hierarchical import jump_sharing, place_hierarchical
from repro.spill.insertion import apply_placement
from repro.spill.model import CalleeSavedUsage, SpillKind, SpillLocation
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.shrink_wrap import place_shrink_wrap, shrink_wrap_sets
from repro.spill.verifier import verify_placement
from repro.workloads.programs import paper_example


@pytest.fixture(scope="module")
def example():
    return paper_example()


class TestJumpBlockPredicate:
    def test_virtual_edges_never_need_a_jump_block(self, example):
        assert not requires_jump_block(example.function, (ENTRY_SENTINEL, "A"))
        assert not requires_jump_block(example.function, ("P", EXIT_SENTINEL))

    def test_single_predecessor_destination_absorbs_the_code(self, example):
        # A -> I is a jump edge but I has a single predecessor.
        assert not requires_jump_block(example.function, ("A", "I"))

    def test_single_successor_source_absorbs_the_code(self, example):
        # F -> H: F has a single successor, so code goes at the end of F.
        assert not requires_jump_block(example.function, ("F", "H"))

    def test_critical_jump_edge_needs_a_jump_block(self, example):
        # D -> F: D has two successors, F has three predecessors, explicit jump.
        assert requires_jump_block(example.function, ("D", "F"))

    def test_critical_fallthrough_edge_needs_no_jump(self, example):
        # C -> D is D's only incoming edge, so no block is needed; build an
        # artificial critical fall-through via B -> C? B->C: C has one pred.
        # Use H -> G (G single pred) and H -> J (J has two preds, jump edge).
        assert not requires_jump_block(example.function, ("H", "G"))
        assert requires_jump_block(example.function, ("H", "J"))


class TestCostModels:
    def test_execution_count_model_is_the_edge_count(self, example):
        model = ExecutionCountCostModel()
        location = SpillLocation(example.register, SpillKind.RESTORE, ("D", "F"))
        assert model.location_cost(example.function, example.profile, location) == 30

    def test_jump_edge_model_adds_the_jump_cost(self, example):
        model = JumpEdgeCostModel()
        location = SpillLocation(example.register, SpillKind.RESTORE, ("D", "F"))
        assert model.location_cost(example.function, example.profile, location) == 60

    def test_jump_cost_is_shared_for_initial_sets(self, example):
        model = JumpEdgeCostModel()
        location = SpillLocation(example.register, SpillKind.RESTORE, ("D", "F"))
        shared = model.location_cost(
            example.function, example.profile, location, jump_sharing={("D", "F"): 2}
        )
        assert shared == 30 + 15

    def test_paper_set1_costs(self, example):
        """Set 1 costs 80 under the execution-count model and 110 under jump-edge."""

        session = CompilationSession(example.function)
        edges = session.cfg.placement_edges()
        by_register, _ = shrink_wrap_sets(
            example.function, example.usage, allow_jump_edges=True, avoid_loops=False,
            session=session,
        )
        sets = by_register[example.register]
        index = next(
            i for i, (saves, restores) in enumerate(sets.pairs)
            if (saves | restores) >> edges.number[("C", "D")] & 1
        )
        saves, restores = sets.pairs[index]
        sharing = jump_sharing(edges, [s.pairs for s in by_register.values()])
        counts = [example.profile.edge_count(key) for key in edges.keys]
        for model, expected in ((ExecutionCountCostModel(), 80), (JumpEdgeCostModel(), 110)):
            assert model.mask_cost(edges, counts, saves, restores, sharing) == expected
            by_key = {edges.keys[n]: count for n, count in sharing.items()}
            assert model.set_cost(
                example.function, example.profile, sets.set_at(index), by_key
            ) == expected

    def test_boundary_cost_of_paper_regions(self, example):
        model = JumpEdgeCostModel()
        assert model.boundary_cost(example.function, example.profile, ("B", "C"), ("F", "H")) == 100
        assert model.boundary_cost(example.function, example.profile, ("A", "B"), ("J", "P")) == 140
        assert model.boundary_cost(example.function, example.profile, ("A", "I"), ("O", "P")) == 60

    def test_make_cost_model_factory(self):
        assert isinstance(make_cost_model("jump_edge"), JumpEdgeCostModel)
        assert isinstance(make_cost_model("execution_count"), ExecutionCountCostModel)
        with pytest.raises(ValueError):
            make_cost_model("nope")


class TestHierarchicalPaperNumbers:
    def test_execution_count_model_reproduces_figure_4a(self, example):
        result = place_hierarchical(
            example.function, example.usage, example.profile, cost_model="execution_count"
        )
        verify_placement(example.function, example.usage, result.placement)
        overhead = placement_dynamic_overhead(example.function, example.profile, result.placement)
        # 190 cycles of save/restore code (the paper's optimal placement).
        assert overhead.save_count + overhead.restore_count == 190
        # Final sets: Set 1 (around D/E), Set 2 (around G), Set 5 (region 3 bounds).
        edges = {l.edge for l in result.placement.locations()}
        assert ("C", "D") in edges and ("D", "F") in edges and ("E", "F") in edges
        assert ("H", "G") in edges and ("G", "J") in edges
        assert ("A", "I") in edges and ("O", "P") in edges

    def test_execution_count_decision_trace(self, example):
        result = place_hierarchical(
            example.function, example.usage, example.profile, cost_model="execution_count"
        )
        decisions = {
            (d.contained_cost, d.boundary_cost): d.replaced
            for d in result.decisions
        }
        assert decisions[(80.0, 100.0)] is False    # Region 1 kept
        assert decisions[(130.0, 140.0)] is False   # Region 2 kept
        assert decisions[(100.0, 60.0)] is True     # Region 3 replaced
        assert decisions[(190.0, 200.0)] is False   # Root kept

    def test_jump_edge_model_reproduces_figure_4b(self, example):
        result = place_hierarchical(
            example.function, example.usage, example.profile, cost_model="jump_edge"
        )
        verify_placement(example.function, example.usage, result.placement)
        overhead = placement_dynamic_overhead(example.function, example.profile, result.placement)
        # The final placement is procedure entry/exit: 200 cycles, no jump blocks.
        assert overhead.total == 200
        assert overhead.num_jump_blocks == 0
        edges = {l.edge for l in result.placement.locations()}
        assert edges == {(ENTRY_SENTINEL, "A"), ("P", EXIT_SENTINEL)}

    def test_jump_edge_decision_trace(self, example):
        result = place_hierarchical(
            example.function, example.usage, example.profile, cost_model="jump_edge"
        )
        decisions = {
            (d.contained_cost, d.boundary_cost): d.replaced for d in result.decisions
        }
        assert decisions[(110.0, 100.0)] is True    # Region 1 replaced (Set 6)
        assert decisions[(150.0, 140.0)] is True    # Region 2 replaced (Set 7)
        assert decisions[(100.0, 60.0)] is True     # Region 3 replaced (Set 5)
        assert decisions[(200.0, 200.0)] is True    # Root: tie goes to entry/exit

    def test_never_worse_than_alternatives_on_the_example(self, example):
        baseline = placement_dynamic_overhead(
            example.function, example.profile, place_entry_exit(example.function, example.usage)
        ).total
        shrink = placement_dynamic_overhead(
            example.function, example.profile, place_shrink_wrap(example.function, example.usage)
        ).total
        optimized = placement_dynamic_overhead(
            example.function,
            example.profile,
            place_hierarchical(example.function, example.usage, example.profile).placement,
        ).total
        assert optimized <= baseline <= shrink

    def test_initial_placement_is_exposed(self, example):
        result = place_hierarchical(example.function, example.usage, example.profile)
        assert result.initial_placement.technique == "modified_shrink_wrap"
        assert len(result.initial_placement.sets_for(example.register)) == 4

    def test_decisions_for_register_filter(self, example):
        result = place_hierarchical(example.function, example.usage, example.profile)
        assert result.decisions_for_register(example.register) == result.decisions

    def test_canonical_regions_never_beat_maximal_on_example(self, example):
        maximal = place_hierarchical(example.function, example.usage, example.profile)
        canonical = place_hierarchical(
            example.function, example.usage, example.profile, maximal_regions=False
        )
        cost_max = placement_dynamic_overhead(
            example.function, example.profile, maximal.placement
        ).total
        cost_canon = placement_dynamic_overhead(
            example.function, example.profile, canonical.placement
        ).total
        verify_placement(example.function, example.usage, canonical.placement)
        assert cost_max <= cost_canon


class TestInsertion:
    def test_insertion_counts_and_block_sharing(self, example, parisc):
        function = example.function.clone()
        usage = CalleeSavedUsage.from_blocks(
            {parisc.callee_saved[0]: ["D", "E"], parisc.callee_saved[1]: ["D", "E"]}
        )
        placement = place_shrink_wrap(function, usage, allow_jump_edges=True, avoid_loops=False)
        result = apply_placement(function, placement)
        # Two registers, each with one save and two restores.
        assert result.inserted_saves == 2
        assert result.inserted_restores == 4
        # Both registers share the single jump block on D -> F.
        assert result.inserted_jumps == 1
        assert list(result.jump_blocks) == [("D", "F")]
        from repro.ir.verifier import verify_function

        verify_function(function, require_single_exit=True)

    def test_entry_and_exit_insertion_positions(self, example):
        function = example.function.clone()
        placement = place_entry_exit(function, example.usage)
        apply_placement(function, placement)
        entry_first = function.block("A").instructions[0]
        assert entry_first.purpose == "callee_save"
        exit_block = function.block("P")
        assert exit_block.instructions[-2].purpose == "callee_restore"
        assert exit_block.instructions[-1].is_return()

    def test_insertion_extends_profile_over_split_edges(self, example):
        function = example.function.clone()
        profile = example.profile.scaled(1.0)
        placement = place_shrink_wrap(function, example.usage, allow_jump_edges=True, avoid_loops=False)
        result = apply_placement(function, placement, profile=profile)
        new_block = result.jump_blocks[("D", "F")]
        assert profile.edge_count(("D", new_block)) == 30
        assert profile.edge_count((new_block, "F")) == 30
        profile.validate(function)

    def test_execution_matches_analytic_overhead(self, example):
        """Interpreter-measured overhead equals the analytic prediction (hot path)."""

        function = example.function.clone()
        placement = place_hierarchical(function, example.usage, example.profile).placement
        apply_placement(function, placement)
        # The branch conditions in the reconstruction always take the jump, so
        # one execution follows A -> I -> L -> M -> O -> P: it crosses the
        # procedure entry/exit saves exactly once.
        run = Interpreter().run(function)
        assert run.purpose_counts.get("callee_save", 0) == 1
        assert run.purpose_counts.get("callee_restore", 0) == 1
