"""A tiny directed-graph abstraction shared by the analyses.

Analyses operate either on a :class:`~repro.ir.function.Function`'s CFG or on
derived graphs (for example its reverse, for post-dominance).
:class:`DiGraph` is the common denominator: ordered nodes, adjacency in both
directions, and a handful of traversal helpers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

Node = Hashable


class DiGraph:
    """A simple directed graph with stable node ordering."""

    def __init__(self) -> None:
        self._succs: Dict[Node, List[Node]] = {}
        self._preds: Dict[Node, List[Node]] = {}
        self._order: List[Node] = []

    @classmethod
    def from_adjacency(
        cls, succs: Dict[Node, Sequence[Node]], preds: Dict[Node, Sequence[Node]]
    ) -> "DiGraph":
        """A graph with a copy of deduplicated adjacency lists.

        Node order is the key order of ``succs``; ``preds`` must hold the
        same nodes.
        """

        graph = cls()
        graph._succs = {node: list(nodes) for node, nodes in succs.items()}
        graph._preds = {node: list(nodes) for node, nodes in preds.items()}
        graph._order = list(succs)
        return graph

    # -- construction -------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node not in self._succs:
            self._succs[node] = []
            self._preds[node] = []
            self._order.append(node)

    def add_edge(self, src: Node, dst: Node) -> None:
        self.add_node(src)
        self.add_node(dst)
        if dst not in self._succs[src]:
            self._succs[src].append(dst)
            self._preds[dst].append(src)

    # -- queries ------------------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        return list(self._order)

    def __contains__(self, node: Node) -> bool:
        return node in self._succs

    def __len__(self) -> int:
        return len(self._order)

    def successors(self, node: Node) -> List[Node]:
        return list(self._succs[node])

    def predecessors(self, node: Node) -> List[Node]:
        return list(self._preds[node])

    def edges(self) -> List[Tuple[Node, Node]]:
        return [(src, dst) for src in self._order for dst in self._succs[src]]

    def num_edges(self) -> int:
        return sum(len(s) for s in self._succs.values())

    # -- traversals ---------------------------------------------------------------

    def reverse_postorder(self, entry: Node) -> List[Node]:
        """Nodes reachable from ``entry`` in reverse post-order (RPO)."""

        return list(reversed(self.postorder(entry)))

    def postorder(self, entry: Node) -> List[Node]:
        """Iterative DFS post-order starting at ``entry``."""

        visited: Set[Node] = set()
        order: List[Node] = []
        stack: List[Tuple[Node, int]] = [(entry, 0)]
        visited.add(entry)
        while stack:
            node, index = stack[-1]
            succs = self._succs[node]
            if index < len(succs):
                stack[-1] = (node, index + 1)
                child = succs[index]
                if child not in visited:
                    visited.add(child)
                    stack.append((child, 0))
            else:
                stack.pop()
                order.append(node)
        return order

    def reversed(self) -> "DiGraph":
        """A new graph with every edge direction flipped."""

        rev_succs: Dict[Node, List[Node]] = {node: [] for node in self._order}
        for src in self._order:
            for dst in self._succs[src]:
                rev_succs[dst].append(src)
        return DiGraph.from_adjacency(rev_succs, self._succs)


def cfg_digraph(cfg) -> DiGraph:
    """The :class:`DiGraph` of one :class:`~repro.ir.cfg.FunctionCFG` snapshot."""

    return DiGraph.from_adjacency(cfg.graph_succs, cfg.graph_preds)

