"""Tests for cycle equivalence: bracket algorithm vs. brute-force oracle."""

from hypothesis import given

from repro.analysis.cycle_equiv import UndirectedMultigraph, cycle_equivalence_classes
from repro.analysis.sese import build_augmented_graph, compute_edge_classes
from repro.workloads.programs import diamond_function, loop_function, paper_example

from tests.conftest import generated_procedures, random_multigraphs
from tests.oracles.structure import brute_force_cycle_equivalence, brute_force_cycle_equivalent


def _as_partition(classes):
    """Normalize a class assignment into a comparable set of frozensets."""

    groups = {}
    for edge, class_id in classes.items():
        groups.setdefault(class_id, set()).add(edge)
    return {frozenset(group) for group in groups.values()}


def _ring(n):
    graph = UndirectedMultigraph()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, f"e{i}")
    return graph


class TestBruteForceOracle:
    def test_ring_edges_are_all_equivalent(self):
        graph = _ring(4)
        classes = brute_force_cycle_equivalence(graph)
        assert len(set(classes.values())) == 1

    def test_two_rings_joined_at_a_node_are_separate_classes(self):
        graph = UndirectedMultigraph()
        graph.add_edge(0, 1, "a0")
        graph.add_edge(1, 2, "a1")
        graph.add_edge(2, 0, "a2")
        graph.add_edge(0, 3, "b0")
        graph.add_edge(3, 4, "b1")
        graph.add_edge(4, 0, "b2")
        classes = brute_force_cycle_equivalence(graph)
        partition = _as_partition(classes)
        assert frozenset({"a0", "a1", "a2"}) in partition
        assert frozenset({"b0", "b1", "b2"}) in partition

    def test_parallel_edges_are_equivalent(self):
        graph = UndirectedMultigraph()
        graph.add_edge(0, 1, "p1")
        graph.add_edge(0, 1, "p2")
        assert brute_force_cycle_equivalent(graph, "p1", "p2")

    def test_bridge_is_singleton(self):
        graph = _ring(3)
        graph.add_edge(0, 99, "bridge")
        classes = brute_force_cycle_equivalence(graph)
        ring_class = classes["e0"]
        assert classes["bridge"] != ring_class

    def test_self_loop_is_singleton(self):
        graph = _ring(3)
        graph.add_edge(1, 1, "self")
        classes = brute_force_cycle_equivalence(graph)
        assert sum(1 for e, c in classes.items() if c == classes["self"]) == 1

    def test_chord_splits_a_ring(self):
        graph = _ring(4)
        graph.add_edge(0, 2, "chord")
        classes = brute_force_cycle_equivalence(graph)
        # With the chord, opposite ring edges are no longer forced together.
        assert classes["e0"] != classes["e2"] or classes["e1"] != classes["e3"]
        # But edges on the same side of the chord remain equivalent.
        assert classes["e0"] == classes["e1"]
        assert classes["e2"] == classes["e3"]


class TestBracketAlgorithm:
    def test_matches_oracle_on_ring(self):
        graph = _ring(5)
        assert _as_partition(cycle_equivalence_classes(graph, 0)) == _as_partition(
            brute_force_cycle_equivalence(graph)
        )

    def test_matches_oracle_on_paper_example_cfg(self):
        graph = build_augmented_graph(paper_example().function)
        fast = cycle_equivalence_classes(graph, root="A")
        slow = brute_force_cycle_equivalence(graph)
        assert _as_partition(fast) == _as_partition(slow)

    def test_matches_oracle_on_loop_cfg(self):
        graph = build_augmented_graph(loop_function())
        assert _as_partition(cycle_equivalence_classes(graph)) == _as_partition(
            brute_force_cycle_equivalence(graph)
        )

    @given(random_multigraphs())
    def test_matches_oracle_on_random_multigraphs(self, graph):
        fast = cycle_equivalence_classes(graph, root=graph.nodes[0])
        slow = brute_force_cycle_equivalence(graph)
        assert _as_partition(fast) == _as_partition(slow)

    @given(generated_procedures(max_segments=4))
    def test_matches_oracle_on_generated_cfgs(self, procedure):
        graph = build_augmented_graph(procedure.function)
        fast = cycle_equivalence_classes(graph, root=procedure.function.entry.label)
        slow = brute_force_cycle_equivalence(graph)
        assert _as_partition(fast) == _as_partition(slow)


class TestCfgEdgeClasses:
    def test_paper_example_expected_classes(self):
        classes = compute_edge_classes(paper_example().function)
        assert classes[("B", "C")] == classes[("F", "H")]
        assert classes[("A", "B")] == classes[("J", "P")]
        assert classes[("A", "I")] == classes[("O", "P")]
        assert classes[("H", "G")] == classes[("G", "J")]
        assert classes[("A", "B")] != classes[("A", "I")]
        assert classes[("C", "D")] != classes[("B", "C")]

    def test_diamond_arm_edges_pair_up(self):
        classes = compute_edge_classes(diamond_function())
        assert classes[("entry", "then")] == classes[("then", "merge")]
        assert classes[("entry", "else_")] == classes[("else_", "merge")]
        assert classes[("entry", "then")] != classes[("entry", "else_")]
