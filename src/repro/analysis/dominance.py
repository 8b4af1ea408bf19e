"""Dominator and post-dominator trees.

Implementation of the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm").  The algorithm works on any
:class:`~repro.analysis.graph.DiGraph`; convenience wrappers operate directly
on IR functions and on the edge-split graph used for edge dominance.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.analysis.graph import DiGraph, edge_split_graph, function_cfg

Node = Hashable


class DominatorTree:
    """The immediate-dominator relation for nodes reachable from the root.

    The tree is numbered once at construction: every node gets its pre-order
    position, the end of its subtree's pre-order interval, and its depth.
    ``a`` dominates ``b`` exactly when ``b``'s position falls inside ``a``'s
    interval, so :meth:`dominates` and :meth:`depth` are O(1) and
    :meth:`descendants` is a slice of the pre-order list.
    """

    def __init__(self, root: Node, idom: Dict[Node, Optional[Node]], rpo_index: Dict[Node, int]):
        self.root = root
        self._idom = idom
        self._rpo_index = rpo_index
        self._children: Dict[Node, List[Node]] = {}
        for node, parent in idom.items():
            if parent is not None and node != root:
                self._children.setdefault(parent, []).append(node)

        # Iterative pre-order walk (no recursion limit on deep trees).  A
        # subtree is contiguous in pre-order, so a parent's interval ends
        # where its last child's does.
        preorder: List[Node] = []
        stack: List[Node] = [root]
        while stack:
            node = stack.pop()
            preorder.append(node)
            children = self._children.get(node)
            if children:
                stack.extend(reversed(children))
        start = {node: i for i, node in enumerate(preorder)}
        parent_pos = [0] + [start[idom[node]] for node in preorder[1:]]
        end = list(range(1, len(preorder) + 1))
        for i in range(len(preorder) - 1, 0, -1):
            if end[i] > end[parent_pos[i]]:
                end[parent_pos[i]] = end[i]
        depth = [0] * len(preorder)
        for i in range(1, len(preorder)):
            depth[i] = depth[parent_pos[i]] + 1
        self._preorder = preorder
        #: ``node -> pre-order position``; ``_end[i]`` is one past the last
        #: position of that node's subtree, ``_depth[i]`` its depth.
        self._start = start
        self._end = end
        self._depth = depth

    # -- queries ------------------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        return list(self._idom.keys())

    def idom(self, node: Node) -> Optional[Node]:
        """Immediate dominator of ``node`` (``None`` for the root)."""

        if node == self.root:
            return None
        return self._idom[node]

    def children(self, node: Node) -> List[Node]:
        return list(self._children.get(node, []))

    def dominates(self, a: Node, b: Node) -> bool:
        """True when ``a`` dominates ``b`` (reflexive).

        Raises ``KeyError`` when ``b`` is not in the tree (and differs from
        ``a``); an ``a`` outside the tree dominates nothing but itself.
        """

        if a == b:
            return True
        position = self._start[b]
        start = self._start.get(a)
        return start is not None and start <= position < self._end[start]

    def strictly_dominates(self, a: Node, b: Node) -> bool:
        return a != b and self.dominates(a, b)

    def dominators_of(self, node: Node) -> List[Node]:
        """All dominators of ``node`` from the node itself up to the root."""

        result = [node]
        current: Optional[Node] = node
        while current != self.root:
            current = self._idom[current]
            if current is None:
                break
            result.append(current)
        return result

    def depth(self, node: Node) -> int:
        """Number of strict dominators of ``node`` (the root has depth 0)."""

        return self._depth[self._start[node]]

    def descendants(self, node: Node) -> List[Node]:
        """``node`` and every node it dominates, in pre-order."""

        start = self._start[node]
        return self._preorder[start : self._end[start]]

    def __contains__(self, node: Node) -> bool:
        return node in self._idom


def compute_dominators_of_graph(graph: DiGraph, entry: Node) -> DominatorTree:
    """Cooper–Harvey–Kennedy iterative dominators for nodes reachable from ``entry``."""

    rpo = graph.reverse_postorder(entry)
    rpo_index = {node: i for i, node in enumerate(rpo)}
    idom: Dict[Node, Optional[Node]] = {entry: entry}

    def intersect(a: Node, b: Node) -> Node:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    reachable_preds = {
        node: [p for p in graph.predecessors(node) if p in rpo_index] for node in rpo[1:]
    }
    changed = True
    while changed:
        changed = False
        for node in rpo[1:]:
            new_idom = None
            for pred in reachable_preds[node]:
                if pred in idom:
                    new_idom = pred if new_idom is None else intersect(new_idom, pred)
            if new_idom is None:
                continue
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True

    idom[entry] = None
    return DominatorTree(entry, idom, rpo_index)


def compute_dominators(function) -> DominatorTree:
    """Dominator tree of a function's CFG, keyed by block label."""

    graph, entry, _exit = function_cfg(function)
    return compute_dominators_of_graph(graph, entry)


def compute_postdominators(function) -> DominatorTree:
    """Post-dominator tree of a function's CFG (dominators of the reverse CFG)."""

    graph, _entry, exit_label = function_cfg(function)
    return compute_dominators_of_graph(graph.reversed(), exit_label)


class EdgeDominance:
    """Dominance and post-dominance between CFG *edges*.

    Edge dominance is computed on the edge-split graph: every CFG edge
    becomes a node spliced between its endpoints, and ordinary node dominance
    on that graph gives the edge relation.  The virtual procedure entry and
    exit edges participate, so "procedure entry dominates every edge" and
    "procedure exit post-dominates every edge" hold as expected.
    """

    def __init__(self, function):
        graph, entry_node, exit_node, edge_nodes = edge_split_graph(function)
        self._edge_nodes: Dict[Tuple[str, str], Node] = dict(edge_nodes)
        self._edge_nodes[("__entry__", function.entry.label)] = entry_node
        self._edge_nodes[(function.exit.label, "__exit__")] = exit_node
        self._dom = compute_dominators_of_graph(graph, entry_node)
        self._postdom = compute_dominators_of_graph(graph.reversed(), exit_node)

    def node_for(self, edge_key: Tuple[str, str]) -> Node:
        return self._edge_nodes[edge_key]

    def block_node(self, label: str) -> Node:
        return ("block", label)

    def edge_dominates_edge(self, a: Tuple[str, str], b: Tuple[str, str]) -> bool:
        return self._dom.dominates(self.node_for(a), self.node_for(b))

    def edge_postdominates_edge(self, a: Tuple[str, str], b: Tuple[str, str]) -> bool:
        return self._postdom.dominates(self.node_for(a), self.node_for(b))

    def edge_depth(self, edge_key: Tuple[str, str]) -> int:
        """Depth of ``edge_key`` in the edge dominator tree."""

        return self._dom.depth(self.node_for(edge_key))

    def blocks_dominated_by_edge(self, edge_key: Tuple[str, str]) -> List[str]:
        """Labels of the blocks ``edge_key`` dominates, read off its dominator subtree."""

        return [
            node[1]
            for node in self._dom.descendants(self.node_for(edge_key))
            if node[0] == "block"
        ]

    def edge_dominates_block(self, edge_key: Tuple[str, str], label: str) -> bool:
        return self._dom.dominates(self.node_for(edge_key), self.block_node(label))

    def edge_postdominates_block(self, edge_key: Tuple[str, str], label: str) -> bool:
        return self._postdom.dominates(self.node_for(edge_key), self.block_node(label))
