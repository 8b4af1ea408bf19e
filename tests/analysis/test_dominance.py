"""Tests for dominators and post-dominators."""

from hypothesis import given

from repro.analysis.dominance import (
    compute_dominators,
    compute_dominators_of_graph,
    compute_postdominators,
)
from repro.analysis.graph import DiGraph
from repro.workloads.programs import diamond_function, loop_function, paper_example

from tests.conftest import generated_procedures


class TestDominators:
    def test_diamond_idoms(self):
        dom = compute_dominators(diamond_function())
        assert dom.idom("entry") is None
        assert dom.idom("then") == "entry"
        assert dom.idom("else_") == "entry"
        assert dom.idom("merge") == "entry"

    def test_loop_idoms(self):
        dom = compute_dominators(loop_function())
        assert dom.idom("header") == "entry"
        assert dom.idom("body") == "header"
        assert dom.idom("exit") == "after"

    def test_dominates_is_reflexive_and_transitive(self):
        dom = compute_dominators(paper_example().function)
        assert dom.dominates("A", "A")
        assert dom.dominates("A", "P")
        assert dom.dominates("B", "C") and dom.dominates("C", "D")
        assert dom.dominates("B", "D")

    def test_strict_dominance_excludes_self(self):
        dom = compute_dominators(diamond_function())
        assert not dom.strictly_dominates("entry", "entry")
        assert dom.strictly_dominates("entry", "merge")

    def test_dominators_of_lists_chain_to_root(self):
        dom = compute_dominators(paper_example().function)
        chain = dom.dominators_of("E")
        assert chain[0] == "E"
        assert chain[-1] == "A"
        assert "D" in chain and "C" in chain

    def test_children_partition_nodes(self):
        dom = compute_dominators(paper_example().function)
        seen = set()
        stack = [dom.root]
        while stack:
            node = stack.pop()
            assert node not in seen
            seen.add(node)
            stack.extend(dom.children(node))
        assert seen == set(paper_example().function.block_labels)

    def test_postdominators_of_paper_example(self):
        postdom = compute_postdominators(paper_example().function)
        assert postdom.dominates("P", "A")
        assert postdom.dominates("F", "D")
        assert postdom.dominates("F", "C")
        assert not postdom.dominates("E", "D")

    def test_graph_level_api_with_unreachable_node(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_node("island")
        dom = compute_dominators_of_graph(graph, "a")
        assert dom.idom("b") == "a"
        assert "island" not in dom

    @given(generated_procedures(max_segments=5))
    def test_entry_dominates_everything(self, procedure):
        function = procedure.function
        dom = compute_dominators(function)
        for label in function.block_labels:
            assert dom.dominates(function.entry.label, label)

    @given(generated_procedures(max_segments=5))
    def test_exit_postdominates_everything(self, procedure):
        function = procedure.function
        postdom = compute_postdominators(function)
        for label in function.block_labels:
            assert postdom.dominates(function.exit.label, label)

    @given(generated_procedures(max_segments=4))
    def test_idom_is_a_strict_dominator(self, procedure):
        function = procedure.function
        dom = compute_dominators(function)
        for label in function.block_labels:
            parent = dom.idom(label)
            if parent is not None:
                assert dom.strictly_dominates(parent, label)
