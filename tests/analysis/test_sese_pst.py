"""Tests for SESE regions and the program structure tree."""

from hypothesis import given

from repro.analysis.pst import build_pst
from repro.analysis.sese import find_canonical_regions, find_maximal_regions
from repro.ir.builder import FunctionBuilder
from repro.ir.verifier import verify_function
from repro.pipeline.compiler import compile_procedure
from repro.profiling.synthetic import uniform_profile
from repro.workloads.programs import diamond_function, loop_function, paper_example
from repro.workloads.scenarios import build_chaos_cfg

from tests.conftest import generated_procedures
from tests.oracles.structure import (
    LOOP_TAIL_CHAOS_CASES,
    chain_dominates,
    forward_between,
    solved_edge_trees,
)


class TestSESERegions:
    def test_paper_example_maximal_regions(self):
        function = paper_example().function
        regions = {(r.entry_edge, r.exit_edge): r for r in find_maximal_regions(function)}
        # The four regions the paper names (Region 4 is the procedure itself).
        assert (("B", "C"), ("F", "H")) in regions
        assert (("A", "B"), ("J", "P")) in regions
        assert (("A", "I"), ("O", "P")) in regions
        assert regions[(("B", "C"), ("F", "H"))].blocks == frozenset("CDEF")
        assert regions[(("A", "B"), ("J", "P"))].blocks == frozenset("BCDEFGHJ")
        assert regions[(("A", "I"), ("O", "P"))].blocks == frozenset("IKLMNO")

    def test_diamond_regions_are_the_two_arms(self):
        regions = find_maximal_regions(diamond_function())
        blocks = {r.blocks for r in regions}
        assert frozenset({"then"}) in blocks
        assert frozenset({"else_"}) in blocks

    def test_loop_regions(self):
        # The loop body is its own region (delimited by the back edge), and
        # the maximal region between procedure entry and the exit jump wraps
        # the whole loop; hoisting spill code to its boundaries is what keeps
        # save/restore code out of loops.
        maximal = find_maximal_regions(loop_function())
        assert any(r.blocks == frozenset({"body"}) for r in maximal)
        assert any(r.blocks == frozenset({"header", "body", "after"}) for r in maximal)
        canonical = find_canonical_regions(loop_function())
        assert any(r.blocks == frozenset({"header", "body"}) for r in canonical)

    def test_canonical_regions_refine_maximal_regions(self):
        function = paper_example().function
        canonical = find_canonical_regions(function)
        maximal = find_maximal_regions(function)
        assert len(canonical) >= len(maximal)
        # Every maximal region's block set is a union of canonical block sets
        # from the same class; at minimum it must contain one of them.
        for region in maximal:
            assert any(c.blocks <= region.blocks for c in canonical)

    def test_single_block_function_has_no_regions(self):
        from repro.ir.builder import FunctionBuilder

        builder = FunctionBuilder("tiny")
        builder.block("entry")
        builder.ret()
        assert find_maximal_regions(builder.build()) == []

    @given(generated_procedures(max_segments=4))
    def test_region_boundaries_satisfy_dominance_conditions(self, procedure):
        function = procedure.function
        dom, postdom = solved_edge_trees(function)
        for region in find_maximal_regions(function):
            entry, exit_ = ("edge",) + region.entry_edge, ("edge",) + region.exit_edge
            assert chain_dominates(dom, entry, exit_)
            assert chain_dominates(postdom, exit_, entry)
            for label in region.blocks:
                assert chain_dominates(dom, entry, ("block", label))
                assert chain_dominates(postdom, exit_, ("block", label))

    def test_loop_tail_stays_in_the_region(self):
        # b7 runs only after the exit edge b2->b3 and loops back to b1, so it
        # is not "between" the two edges; the entry edge still dominates it
        # and the exit edge still post-dominates it, so the region keeps it.
        function = build_chaos_cfg(6, 1).function
        regions = {(r.entry_edge, r.exit_edge): r.blocks for r in find_maximal_regions(function)}
        entry, exit_ = ("b1", "b2"), ("b2", "b3")
        assert regions[(entry, exit_)] == frozenset({"b2", "b7"})
        assert forward_between(function, entry, exit_) == {"b2"}

    def test_every_loop_tail_case_keeps_its_tail(self):
        for seed, index in LOOP_TAIL_CHAOS_CASES:
            function = build_chaos_cfg(seed, index).function
            tails = [
                r.blocks - forward_between(function, r.entry_edge, r.exit_edge)
                for r in find_maximal_regions(function)
            ]
            assert sum(1 for tail in tails if tail) == 1, (seed, index)

    @given(generated_procedures(max_segments=4))
    def test_regions_never_partially_overlap(self, procedure):
        regions = find_maximal_regions(procedure.function)
        for a in regions:
            for b in regions:
                intersection = a.blocks & b.blocks
                assert not intersection or a.blocks <= b.blocks or b.blocks <= a.blocks


class TestProgramStructureTree:
    def test_root_covers_whole_procedure(self):
        example = paper_example()
        pst = build_pst(example.function)
        assert pst.root.is_root
        assert pst.root.blocks == frozenset(example.function.block_labels)
        assert pst.root.entry_edge == ("__entry__", "A")
        assert pst.root.exit_edge == ("P", "__exit__")

    def test_nesting_of_paper_regions(self):
        pst = build_pst(paper_example().function)
        by_blocks = {r.blocks: r for r in pst.regions()}
        region1 = by_blocks[frozenset("CDEF")]
        region2 = by_blocks[frozenset("BCDEFGHJ")]
        region3 = by_blocks[frozenset("IKLMNO")]
        assert region1.parent is region2
        assert region2.parent is pst.root
        assert region3.parent is pst.root

    def test_topological_order_visits_children_first(self):
        pst = build_pst(paper_example().function)
        order = pst.topological_order()
        positions = {id(region): index for index, region in enumerate(order)}
        for region in pst.regions():
            for child in region.children:
                assert positions[id(child)] < positions[id(region)]
        assert order[-1] is pst.root

    def test_smallest_region_containing(self):
        pst = build_pst(paper_example().function)
        assert pst.smallest_region_containing("E").blocks == frozenset({"E"})
        assert pst.smallest_region_containing("C").blocks == frozenset("CDEF")
        assert pst.smallest_region_containing("A") is pst.root

    def test_canonical_pst_has_at_least_as_many_regions(self):
        function = paper_example().function
        assert build_pst(function, maximal=False).region_count() >= build_pst(function).region_count()

    def test_deep_nest_builds_walks_and_compiles(self):
        # 1,100 nested branch-around regions: deeper than the interpreter's
        # default recursion limit of 1,000.
        depth = 1100
        builder = FunctionBuilder("deep_nest")
        builder.block("entry")
        value = builder.const(1)
        for i in range(depth):
            if i:
                builder.block(f"g{i}")
            builder.branch(builder.cmp_lt(value, i), f"j{i}")
        builder.block("mid")
        builder.call("callee", [value])
        for i in reversed(range(depth)):
            builder.block(f"j{i}")
            builder.nop()
        builder.block("exit")
        builder.ret([value])
        function = builder.build()
        verify_function(function, require_single_exit=True)

        pst = build_pst(function)
        assert pst.depth() == depth
        # The regions form one chain, so children-before-parents is
        # innermost first and the root last.
        order = pst.topological_order()
        assert order == sorted(pst.regions(), key=lambda r: len(r.blocks))
        assert all(inner.parent is outer for inner, outer in zip(order, order[1:]))
        compiled = compile_procedure((function, uniform_profile(function)))
        assert compiled.record.num_blocks >= 2 * depth

    @given(generated_procedures(max_segments=4))
    def test_every_region_nested_in_its_parent(self, procedure):
        pst = build_pst(procedure.function)
        for region in pst.interior_regions():
            assert region.parent is not None
            assert region.blocks <= region.parent.blocks
            assert region in region.parent.children

    @given(generated_procedures(max_segments=4))
    def test_depth_is_consistent(self, procedure):
        pst = build_pst(procedure.function)
        assert pst.root.depth == 0
        for region in pst.interior_regions():
            assert region.depth == region.parent.depth + 1
