"""The size-linear dominance, region and PST queries agree with their oracles.

``tests/oracles/structure.py`` keeps the original formulations (idom-chain
dominance, two iterative solves on the edge-split graph, the every-block
region scan, the strict-superset PST nesting); these properties check the
shipped versions against them on generated procedures, seeded ``chaos_cfg``
flowgraphs (irreducible ones included), edge-split graphs and a graph with an
unreachable node.  SESE regions read off the block trees, their PST nesting,
ids, child order and walk must equal the oracle built on the solved
edge-split trees, on Table 1 and every scenario family before and after
allocation, the loop-tail and overlapping ``chaos_cfg`` draws, and flowgraphs
with an unreachable island or a loop that cannot reach the exit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.dominance import (
    compute_dominators,
    compute_dominators_of_graph,
    compute_postdominators,
)
from repro.analysis.graph import DiGraph
from repro.analysis.pst import Region, _nest_regions, build_pst
from repro.analysis.session import CompilationSession
from repro.analysis.sese import find_canonical_regions, find_maximal_regions
from repro.ir.builder import FunctionBuilder
from repro.regalloc import allocate_registers
from repro.workloads.scenarios import build_chaos_cfg, build_scenario, scenario_names
from repro.workloads.spec_like import build_suite

from tests.conftest import generated_procedures
from tests.oracles.structure import (
    LOOP_TAIL_CHAOS_CASES,
    chain_descendants,
    chain_dominates,
    edge_split_graph,
    scan_pst_shape,
    scan_regions,
    scan_smallest_region_containing,
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
        assert set(tree.descendants(a)) == chain_descendants(tree, a)
        assert len(tree.descendants(a)) == len(chain_descendants(tree, a))
        assert tree.descendants(a)[0] == a
        for b in nodes:
            assert tree.dominates(a, b) == chain_dominates(tree, a, b)
        assert tree.dominated_among(a, nodes) == [b for b in nodes if chain_dominates(tree, a, b)]


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
            dom.descendants("island")
        assert dom.descendants("a") == ["a", "b"]
        assert dom.dominated_among("a", ["b", "island", "a"]) == ["b", "a"]
        assert dom.dominated_among("island", ["island", "a"]) == []
        assert_tree_matches_oracle(dom)

    def test_deep_chain_needs_no_recursion(self):
        graph = DiGraph()
        for i in range(5000):
            graph.add_edge(i, i + 1)
        dom = compute_dominators_of_graph(graph, 0)
        assert dom.dominates(0, 5000) and not dom.dominates(5000, 0)
        assert dom.descendants(4998) == [4998, 4999, 5000]


class TestRegions:
    @given(functions)
    def test_region_block_sets_match_the_scan(self, function):
        assert find_maximal_regions(function) == scan_regions(function, maximal=True)
        assert find_canonical_regions(function) == scan_regions(function, maximal=False)

    @pytest.mark.parametrize("name", ["table1", "scenarios", "chaos_cfg", "degenerate"])
    def test_regions_and_pst_match_the_oracle(self, name, parisc):
        functions = fixed_sets(name, parisc)
        for function in functions:
            session = CompilationSession(function)
            for maximal in (True, False):
                expected = scan_regions(function, maximal)
                find_regions = find_maximal_regions if maximal else find_canonical_regions
                assert find_regions(function, session) == expected, (function.name, maximal)
                assert pst_shape(session.pst(maximal)) == scan_pst_shape(function, expected), (
                    function.name,
                    maximal,
                )


def island_function():
    """``isl`` and ``isl2`` are unreachable but branch into the live blocks."""

    builder = FunctionBuilder("island")
    builder.block("entry")
    value = builder.const(1)
    builder.branch(value, "b")
    builder.block("a")
    builder.jump("c")
    builder.block("b")
    builder.nop()
    builder.block("c")
    builder.jump("exit")
    builder.block("isl")
    builder.branch(builder.const(2), "b")
    builder.block("isl2")
    builder.jump("c")
    builder.block("exit")
    builder.ret()
    return builder.build()


def stuck_loop_function():
    """The cycle ``spin -> spin3 -> spin2 -> spin`` never reaches the exit."""

    builder = FunctionBuilder("stuck")
    builder.block("entry")
    builder.branch(builder.const(1), "spin")
    builder.block("mid")
    builder.jump("exit")
    builder.block("spin")
    builder.branch(builder.const(2), "spin3")
    builder.block("spin2")
    builder.jump("spin")
    builder.block("spin3")
    builder.jump("spin2")
    builder.block("exit")
    builder.ret()
    return builder.build()


def fixed_sets(name, machine):
    """The deterministic function sets the region-identity test covers."""

    def with_allocation(procedures):
        result = []
        for procedure in procedures:
            allocation = allocate_registers(procedure.function, machine, procedure.profile)
            result += [procedure.function, allocation.function]
        return result

    if name == "table1":
        functions = with_allocation(p for b in build_suite() for p in b.procedures)
        assert len(functions) == 2 * 172
        return functions
    if name == "scenarios":
        procedures = [
            p for family in scenario_names() for p in build_scenario(family, machine=machine)
        ]
        for seed in range(1, 4):
            procedures += build_scenario("irreducible_loop", seed=seed, count=4, machine=machine)
        return with_allocation(procedures)
    if name == "chaos_cfg":
        cases = [(244, 1)] + list(LOOP_TAIL_CHAOS_CASES)
        return [build_chaos_cfg(seed, index).function for seed, index in cases]
    return [island_function(), stuck_loop_function()]


def pst_shape(pst):
    """:func:`scan_pst_shape`'s rows, read off a built PST."""

    rows = [
        (
            r.identifier,
            r.entry_edge,
            r.exit_edge,
            r.blocks,
            None if r.parent is None else r.parent.identifier,
            [c.identifier for c in r.children],
        )
        for r in sorted(pst.regions(), key=lambda r: r.identifier)
    ]
    return rows + [tuple(r.identifier for r in pst.topological_order())]


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
