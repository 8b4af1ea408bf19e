"""The size-linear dominance, region and PST queries agree with their oracles.

``tests/oracles/structure.py`` keeps the original formulations (idom-chain
dominance, two iterative solves on the edge-split graph, the every-block
region scan, the strict-superset PST nesting); these properties check the
shipped versions against them on generated procedures, seeded ``chaos_cfg``
flowgraphs (irreducible ones included), edge-split graphs, the Table 1 suite,
``irreducible_loop`` before and after allocation, and a graph with an
unreachable node.  The edge-split trees :class:`EdgeDominance` derives from
the block trees must equal the solved ones node for node.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.dominance import (
    EdgeDominance,
    compute_dominators,
    compute_dominators_of_graph,
    compute_postdominators,
)
from repro.analysis.graph import DiGraph
from repro.analysis.pst import Region, _nest_regions, build_pst
from repro.analysis.sese import find_canonical_regions, find_maximal_regions
from repro.regalloc import allocate_registers
from repro.workloads.scenarios import build_chaos_cfg, build_scenario
from repro.workloads.spec_like import build_suite

from tests.conftest import generated_procedures
from tests.oracles.structure import (
    chain_depth,
    chain_descendants,
    chain_dominates,
    edge_split_graph,
    idom_map,
    scan_regions,
    scan_smallest_region_containing,
    solved_edge_trees,
    superset_scan_children,
    superset_scan_parents,
)


@st.composite
def chaos_functions(draw):
    seed = draw(st.integers(min_value=0, max_value=200))
    index = draw(st.integers(min_value=0, max_value=5))
    return build_chaos_cfg(seed, index).function


functions = st.one_of(
    generated_procedures(max_segments=5).map(lambda p: p.function), chaos_functions()
)


def assert_tree_matches_oracle(tree) -> None:
    nodes = tree.nodes
    for a in nodes:
        assert tree.depth(a) == chain_depth(tree, a)
        assert set(tree.descendants(a)) == chain_descendants(tree, a)
        assert len(tree.descendants(a)) == len(chain_descendants(tree, a))
        assert tree.descendants(a)[0] == a
        for b in nodes:
            assert tree.dominates(a, b) == chain_dominates(tree, a, b)


def assert_derived_edge_trees_match_the_solves(function) -> None:
    """The derived edge-split trees equal the two iterative solves, idom for idom."""

    derived = EdgeDominance(function)
    dom, postdom = solved_edge_trees(function)
    assert idom_map(derived._dom) == idom_map(dom)
    assert idom_map(derived._postdom) == idom_map(postdom)


class TestDominatorTree:
    @given(functions)
    def test_block_dominators_and_postdominators(self, function):
        assert_tree_matches_oracle(compute_dominators(function))
        assert_tree_matches_oracle(compute_postdominators(function))

    @given(functions)
    def test_edge_split_graphs(self, function):
        graph, entry_node, exit_node, _edges = edge_split_graph(function)
        assert_tree_matches_oracle(compute_dominators_of_graph(graph, entry_node))
        assert_tree_matches_oracle(compute_dominators_of_graph(graph.reversed(), exit_node))
        derived = EdgeDominance(function)
        assert_tree_matches_oracle(derived._dom)
        assert_tree_matches_oracle(derived._postdom)
        assert_derived_edge_trees_match_the_solves(function)

    def test_derived_edge_trees_on_table1_and_irreducible_loops(self, parisc):
        functions = [p.function for b in build_suite() for p in b.procedures]
        assert len(functions) == 172
        for seed in range(4):
            for procedure in build_scenario("irreducible_loop", seed=seed, count=4, machine=parisc):
                allocation = allocate_registers(procedure.function, parisc, procedure.profile)
                functions += [procedure.function, allocation.function]
        for function in functions:
            assert_derived_edge_trees_match_the_solves(function)

    def test_unreachable_node_semantics(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_node("island")
        dom = compute_dominators_of_graph(graph, "a")
        assert "island" not in dom
        for query in (dom.dominates, lambda a, b: chain_dominates(dom, a, b)):
            assert query("island", "island")  # reflexive, even outside the tree
            assert not query("island", "b")  # an unreachable node dominates nothing
            assert not query("island", "a")
            with pytest.raises(KeyError):
                query("a", "island")
        with pytest.raises(KeyError):
            dom.depth("island")
        with pytest.raises(KeyError):
            dom.descendants("island")
        assert dom.descendants("a") == ["a", "b"]
        assert (dom.depth("a"), dom.depth("b")) == (0, 1)
        assert_tree_matches_oracle(dom)

    def test_deep_chain_needs_no_recursion(self):
        graph = DiGraph()
        for i in range(5000):
            graph.add_edge(i, i + 1)
        dom = compute_dominators_of_graph(graph, 0)
        assert dom.depth(5000) == 5000
        assert dom.dominates(0, 5000) and not dom.dominates(5000, 0)
        assert dom.descendants(4998) == [4998, 4999, 5000]


class TestRegions:
    @given(functions)
    def test_region_block_sets_match_the_scan(self, function):
        assert find_maximal_regions(function) == scan_regions(function, maximal=True)
        assert find_canonical_regions(function) == scan_regions(function, maximal=False)

    @given(functions)
    def test_edge_depth_is_the_dominator_depth(self, function):
        dominance = EdgeDominance(function)
        for edge in function.edges():
            node = dominance.node_for(edge.key)
            assert dominance.edge_depth(edge.key) == chain_depth(dominance._dom, node)


def assert_nesting_matches_oracle(root, regions, by_size) -> None:
    parents = superset_scan_parents(root, by_size)
    children = superset_scan_children(root, by_size)
    for region in regions:
        assert region.parent.identifier == parents[region.identifier]
    for region in [root] + by_size:
        assert [c.identifier for c in region.children] == children[region.identifier]


class TestPSTNesting:
    @given(functions, st.booleans())
    def test_parents_children_and_order_match_the_scan(self, function, maximal):
        pst = build_pst(function, maximal=maximal)
        by_size = pst.interior_regions()
        assert_nesting_matches_oracle(pst.root, by_size, by_size)
        for label in function.block_labels:
            assert pst.smallest_region_containing(label) is scan_smallest_region_containing(
                pst.regions(), label
            )

    def test_overlapping_canonical_regions_match_the_scan(self):
        # An irreducible chaos_cfg draw whose canonical regions overlap:
        # {b1, b4} and {b2, b4} share b4 without either containing the other.
        function = build_chaos_cfg(244, 1).function
        pst = build_pst(function, maximal=False)
        blocks = [r.blocks for r in pst.interior_regions()]
        assert any(a & b and not (a <= b or b <= a) for a in blocks for b in blocks)
        by_size = pst.interior_regions()
        assert_nesting_matches_oracle(pst.root, by_size, by_size)

    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=9),
            max_size=12,
        ),
        st.booleans(),
    )
    def test_ties_and_overlaps_match_the_scan(self, block_sets, laminar):
        """Equal block sets (ties) and, unless ``laminar``, overlapping sets."""

        universe = frozenset(str(i) for i in range(10))
        sets = [frozenset(str(i) for i in s) for s in block_sets]
        if laminar:
            sets = [
                s
                for i, s in enumerate(sets)
                if all(s <= t or t <= s or not s & t for t in sets[:i])
            ]
        sets = [s for s in sets if s != universe]
        sets += sets[: len(sets) // 2]  # duplicate block sets force ties
        root = Region(0, ("__entry__", "0"), ("9", "__exit__"), universe, is_root=True)
        regions = [Region(i + 1, ("e", str(i)), ("x", str(i)), s) for i, s in enumerate(sets)]
        by_size, innermost = _nest_regions(root, regions)
        assert [r.identifier for r in by_size] == [
            r.identifier for r in sorted(regions, key=lambda r: len(r.blocks))
        ]
        assert_nesting_matches_oracle(root, regions, by_size)
        for label in universe:
            expected = scan_smallest_region_containing([root] + by_size, label)
            assert innermost.get(label, root) is expected
