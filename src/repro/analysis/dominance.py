"""Dominator and post-dominator trees.

Implementation of the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm").  The algorithm works on any
:class:`~repro.analysis.graph.DiGraph`; convenience wrappers operate directly
on IR functions.  Edge dominance is read off the two block trees in one
linear pass, with no second solve (see :class:`EdgeDominance`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.analysis.graph import DiGraph, cfg_digraph
from repro.analysis.session import CompilationSession, session_for
from repro.ir.cfg import ENTRY_SENTINEL, EXIT_SENTINEL

Node = Hashable


class DominatorTree:
    """The immediate-dominator relation for nodes reachable from the root.

    The tree is numbered once at construction: every node gets its pre-order
    position, the end of its subtree's pre-order interval, and its depth.
    ``a`` dominates ``b`` exactly when ``b``'s position falls inside ``a``'s
    interval, so :meth:`dominates` and :meth:`depth` are O(1) and
    :meth:`descendants` is a slice of the pre-order list.
    """

    def __init__(self, root: Node, idom: Dict[Node, Optional[Node]]):
        self.root = root
        self._idom = idom
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
    return DominatorTree(entry, idom)


def compute_dominators(function, session: Optional[CompilationSession] = None) -> DominatorTree:
    """Dominator tree of a function's CFG, keyed by block label."""

    cfg = session_for(function, session).cfg
    return compute_dominators_of_graph(cfg_digraph(cfg), cfg.entry_label)


def compute_postdominators(
    function, session: Optional[CompilationSession] = None
) -> DominatorTree:
    """Post-dominator tree of a function's CFG (dominators of the reverse CFG)."""

    cfg = session_for(function, session).cfg
    return compute_dominators_of_graph(cfg_digraph(cfg).reversed(), cfg.exit_label)


def _split_idoms(tree: DominatorTree, neighbours, root_edge: Node, edge_node) -> Dict:
    """Immediate dominators on the edge-split graph, read off a block tree.

    ``neighbours`` are the predecessor lists (successor lists, with the
    post-dominator tree, for the mirror image).  Edge ``(n, v)`` has idom
    block ``n``.  Block ``v`` has idom edge ``(n, v)`` when ``n`` is its only
    neighbour that ``v`` does not dominate — every path first enters ``v``
    there, so a loop header's entry edge is its idom — and otherwise keeps
    its block idom, which no single edge dominates.
    """

    idom: Dict[Node, Optional[Node]] = {root_edge: None, ("block", tree.root): root_edge}
    for v in tree.nodes:
        entering = []
        for n in neighbours[v]:
            if n in tree:
                idom[edge_node(n, v)] = ("block", n)
                if not tree.dominates(v, n):
                    entering.append(n)
        if v != tree.root:
            parent = edge_node(entering[0], v) if len(entering) == 1 else ("block", tree.idom(v))
            idom[("block", v)] = parent
    return idom


class EdgeDominance:
    """Dominance and post-dominance between CFG *edges*.

    Edge dominance is node dominance on the edge-split graph, where every
    CFG edge ``(u, v)`` is a node ``("edge", u, v)`` spliced between
    ``("block", u)`` and ``("block", v)``.  The virtual procedure entry and
    exit edges participate, so "procedure entry dominates every edge" and
    "procedure exit post-dominates every edge" hold.  Both split-graph trees
    are read off the session's block trees in linear time; nothing is solved.
    """

    def __init__(self, function, session: Optional[CompilationSession] = None):
        session = session_for(function, session)
        cfg = session.cfg
        entry, exit_label = cfg.entry_label, cfg.exit_label
        entry_node = ("edge", ENTRY_SENTINEL, entry)
        exit_node = ("edge", exit_label, EXIT_SENTINEL)
        self._edge_nodes: Dict[Tuple[str, str], Node] = {
            e.key: ("edge",) + e.key for e in cfg.edges
        }
        self._edge_nodes[entry_node[1:]] = entry_node
        self._edge_nodes[exit_node[1:]] = exit_node
        dom, postdom = session.dom, session.postdom
        idom = _split_idoms(dom, cfg.graph_preds, entry_node, lambda n, v: ("edge", n, v))
        ipdom = _split_idoms(postdom, cfg.graph_succs, exit_node, lambda n, v: ("edge", v, n))
        if exit_label in dom:
            idom[exit_node] = ("block", exit_label)
        if entry in postdom:
            ipdom[entry_node] = ("block", entry)
        self._dom = DominatorTree(entry_node, idom)
        self._postdom = DominatorTree(exit_node, ipdom)

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
