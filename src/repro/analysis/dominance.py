"""Dominator and post-dominator trees.

Implementation of the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm").  The algorithm works on any
:class:`~repro.analysis.graph.DiGraph`; convenience wrappers operate directly
on IR functions.  SESE regions are read off the two block trees directly
(see :mod:`repro.analysis.sese`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.analysis.graph import DiGraph, cfg_digraph
from repro.analysis.session import CompilationSession, session_for

Node = Hashable


class DominatorTree:
    """The immediate-dominator relation for nodes reachable from the root.

    The tree is numbered once at construction: every node gets its pre-order
    position and the end of its subtree's pre-order interval.  ``a``
    dominates ``b`` exactly when ``b``'s position falls inside ``a``'s
    interval, so :meth:`dominates` is O(1) and :meth:`descendants` is a
    slice of the pre-order list.
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
        self._preorder = preorder
        #: ``node -> pre-order position``; ``_end[i]`` is one past the last
        #: position of that node's subtree.
        self._start = start
        self._end = end

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

    def descendants(self, node: Node) -> List[Node]:
        """``node`` and every node it dominates, in pre-order."""

        start = self._start[node]
        return self._preorder[start : self._end[start]]

    def dominated_among(self, node: Node, candidates) -> List[Node]:
        """The ``candidates`` that ``node`` dominates, in their given order.

        Candidates outside the tree are skipped; a ``node`` outside the tree
        dominates none of the rest.
        """

        start = self._start.get(node)
        if start is None:
            return []
        end = self._end[start]
        position = self._start.get
        return [c for c in candidates if start <= position(c, -1) < end]

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
