"""Cycle equivalence of CFG edges (Johnson, Pearson and Pingali, PLDI'94).

Two edges of an undirected graph are *cycle equivalent* when every cycle that
contains one also contains the other.  Cycle-equivalent edges of the
(undirected view of the) control flow graph, augmented with an edge from the
procedure exit back to the entry, delimit the single-entry/single-exit (SESE)
regions from which the program structure tree is built.

:func:`cycle_equivalence_classes` is the linear-time bracket-set algorithm
from the paper; a brute-force transcription of the definition checks it in
``tests/oracles/structure.py``.

It operates on an :class:`UndirectedMultigraph` so that parallel edges (for
example a CFG edge ``u -> v`` together with the augmenting ``exit -> entry``
edge when ``u`` is the exit and ``v`` the entry) are handled correctly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

NodeId = Hashable
EdgeId = Hashable


class UndirectedMultigraph:
    """An undirected multigraph with explicit, hashable edge identifiers."""

    def __init__(self) -> None:
        self._adjacency: Dict[NodeId, List[Tuple[NodeId, EdgeId]]] = {}
        self._edges: Dict[EdgeId, Tuple[NodeId, NodeId]] = {}
        self._order: List[NodeId] = []

    def add_node(self, node: NodeId) -> None:
        if node not in self._adjacency:
            self._adjacency[node] = []
            self._order.append(node)

    def add_edge(self, u: NodeId, v: NodeId, edge_id: EdgeId) -> None:
        if edge_id in self._edges:
            raise ValueError(f"duplicate edge id {edge_id!r}")
        self.add_node(u)
        self.add_node(v)
        self._edges[edge_id] = (u, v)
        self._adjacency[u].append((v, edge_id))
        if u != v:
            self._adjacency[v].append((u, edge_id))

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._order)

    @property
    def edge_ids(self) -> List[EdgeId]:
        return list(self._edges.keys())

    def endpoints(self, edge_id: EdgeId) -> Tuple[NodeId, NodeId]:
        return self._edges[edge_id]

    def adjacency(self, node: NodeId) -> List[Tuple[NodeId, EdgeId]]:
        return list(self._adjacency[node])

    def num_edges(self) -> int:
        return len(self._edges)

    def is_self_loop(self, edge_id: EdgeId) -> bool:
        u, v = self._edges[edge_id]
        return u == v


# ---------------------------------------------------------------------------
# The linear-time bracket-set algorithm.
# ---------------------------------------------------------------------------


class _Bracket:
    """A bracket: a (real or capping) backedge spanning a tree edge."""

    __slots__ = ("edge_id", "is_capping", "recent_size", "recent_class", "class_id", "_node")

    def __init__(self, edge_id: Optional[EdgeId], is_capping: bool = False):
        self.edge_id = edge_id
        self.is_capping = is_capping
        self.recent_size = -1
        self.recent_class: Optional[int] = None
        self.class_id: Optional[int] = None
        self._node: Optional["_BracketNode"] = None


class _BracketNode:
    __slots__ = ("bracket", "prev", "next")

    def __init__(self, bracket: _Bracket):
        self.bracket = bracket
        self.prev: Optional["_BracketNode"] = None
        self.next: Optional["_BracketNode"] = None


class _BracketList:
    """Doubly linked list with O(1) push, delete (by handle) and concatenation."""

    __slots__ = ("head", "tail", "size")

    def __init__(self) -> None:
        self.head: Optional[_BracketNode] = None  # the "top" of the stack
        self.tail: Optional[_BracketNode] = None
        self.size = 0

    def push(self, bracket: _Bracket) -> None:
        node = _BracketNode(bracket)
        bracket._node = node
        node.next = self.head
        if self.head is not None:
            self.head.prev = node
        self.head = node
        if self.tail is None:
            self.tail = node
        self.size += 1

    def top(self) -> _Bracket:
        if self.head is None:
            raise IndexError("empty bracket list")
        return self.head.bracket

    def delete(self, bracket: _Bracket) -> None:
        node = bracket._node
        if node is None:
            return
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self.head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self.tail = node.prev
        bracket._node = None
        self.size -= 1

    @staticmethod
    def concat(first: "_BracketList", second: "_BracketList") -> "_BracketList":
        """Concatenate (``first`` on top of ``second``), reusing the nodes."""

        if first.size == 0:
            return second
        if second.size == 0:
            return first
        first.tail.next = second.head
        second.head.prev = first.tail
        first.tail = second.tail
        first.size += second.size
        # ``second`` must not be used afterwards; the caller discards it.
        return first


@dataclass
class _DfsTree:
    """Undirected DFS spanning tree with edges classified as tree or back edges."""

    dfsnum: Dict[NodeId, int]
    node_at: List[NodeId]
    parent: Dict[NodeId, Optional[NodeId]]
    parent_edge: Dict[NodeId, Optional[EdgeId]]
    children: Dict[NodeId, List[NodeId]]
    #: Backedges leaving ``n`` towards a proper ancestor, as (ancestor, edge id).
    up_backedges: Dict[NodeId, List[Tuple[NodeId, EdgeId]]]
    #: Backedges arriving at ``n`` from a proper descendant, as (descendant, edge id).
    down_backedges: Dict[NodeId, List[Tuple[NodeId, EdgeId]]]
    order: List[NodeId]


def _undirected_dfs(graph: UndirectedMultigraph, root: NodeId) -> _DfsTree:
    dfsnum: Dict[NodeId, int] = {}
    node_at: List[NodeId] = []
    parent: Dict[NodeId, Optional[NodeId]] = {root: None}
    parent_edge: Dict[NodeId, Optional[EdgeId]] = {root: None}
    children: Dict[NodeId, List[NodeId]] = {}
    up_backedges: Dict[NodeId, List[Tuple[NodeId, EdgeId]]] = {}
    down_backedges: Dict[NodeId, List[Tuple[NodeId, EdgeId]]] = {}
    processed_edges: Set[EdgeId] = set()

    for node in graph.nodes:
        children[node] = []
        up_backedges[node] = []
        down_backedges[node] = []

    # Iterative DFS keeping an explicit adjacency cursor per node.
    dfsnum[root] = 0
    node_at.append(root)
    stack: List[Tuple[NodeId, int]] = [(root, 0)]
    adjacency = {node: graph.adjacency(node) for node in graph.nodes}

    while stack:
        node, cursor = stack[-1]
        neighbours = adjacency[node]
        if cursor >= len(neighbours):
            stack.pop()
            continue
        stack[-1] = (node, cursor + 1)
        neighbour, edge_id = neighbours[cursor]
        if edge_id in processed_edges:
            continue
        if neighbour == node:
            # Self loops never participate in the bracket computation.
            processed_edges.add(edge_id)
            continue
        if neighbour not in dfsnum:
            processed_edges.add(edge_id)
            dfsnum[neighbour] = len(node_at)
            node_at.append(neighbour)
            parent[neighbour] = node
            parent_edge[neighbour] = edge_id
            children[node].append(neighbour)
            stack.append((neighbour, 0))
        else:
            processed_edges.add(edge_id)
            # Non-tree edge: the endpoint with the larger dfsnum is the
            # descendant.  (Undirected DFS produces no cross edges.)
            if dfsnum[neighbour] < dfsnum[node]:
                descendant, ancestor = node, neighbour
            else:
                descendant, ancestor = neighbour, node
            up_backedges[descendant].append((ancestor, edge_id))
            down_backedges[ancestor].append((descendant, edge_id))

    order = [node_at[i] for i in range(len(node_at))]
    return _DfsTree(
        dfsnum=dfsnum,
        node_at=node_at,
        parent=parent,
        parent_edge=parent_edge,
        children=children,
        up_backedges=up_backedges,
        down_backedges=down_backedges,
        order=order,
    )


def cycle_equivalence_classes(
    graph: UndirectedMultigraph, root: Optional[NodeId] = None
) -> Dict[EdgeId, int]:
    """Compute cycle-equivalence classes with the bracket-set algorithm.

    Every edge reachable from ``root`` receives a class id; edges in separate
    connected components are processed per component.  Self loops always get a
    fresh singleton class.
    """

    class_counter = itertools.count()
    classes: Dict[EdgeId, int] = {}

    remaining_roots: List[NodeId] = []
    if root is not None:
        remaining_roots.append(root)
    remaining_roots.extend(graph.nodes)

    visited: Set[NodeId] = set()
    for component_root in remaining_roots:
        if component_root in visited or component_root not in graph._adjacency:
            continue
        tree = _undirected_dfs(graph, component_root)
        visited.update(tree.dfsnum.keys())
        _process_component(graph, tree, classes, class_counter)

    # Self loops and edges in untouched components (isolated nodes) get
    # singleton classes.
    for edge_id in graph.edge_ids:
        if edge_id not in classes:
            classes[edge_id] = next(class_counter)
    return classes


def _process_component(
    graph: UndirectedMultigraph,
    tree: _DfsTree,
    classes: Dict[EdgeId, int],
    class_counter,
) -> None:
    dfsnum = tree.dfsnum
    hi: Dict[NodeId, int] = {}
    blists: Dict[NodeId, _BracketList] = {}
    brackets_by_edge: Dict[EdgeId, _Bracket] = {}
    #: Capping brackets to delete when their ancestor endpoint is processed.
    capping_at: Dict[NodeId, List[_Bracket]] = {node: [] for node in tree.order}
    infinity = len(tree.order) + 1

    for node in sorted(tree.order, key=lambda n: dfsnum[n], reverse=True):
        # -- hi values ----------------------------------------------------------
        hi0 = min((dfsnum[t] for t, _ in tree.up_backedges[node]), default=infinity)
        child_his = [(hi[c], c) for c in tree.children[node]]
        hi1 = min((value for value, _ in child_his), default=infinity)
        hi[node] = min(hi0, hi1)
        hichild = None
        for value, child in child_his:
            if value == hi1:
                hichild = child
                break
        hi2 = min(
            (value for value, child in child_his if child is not hichild),
            default=infinity,
        )

        # -- bracket list --------------------------------------------------------
        blist = _BracketList()
        for child in tree.children[node]:
            blist = _BracketList.concat(blists[child], blist)

        for bracket in capping_at[node]:
            blist.delete(bracket)
        for _descendant, edge_id in tree.down_backedges[node]:
            bracket = brackets_by_edge.get(edge_id)
            if bracket is not None:
                blist.delete(bracket)
            if edge_id not in classes:
                classes[edge_id] = next(class_counter)
        for ancestor, edge_id in tree.up_backedges[node]:
            bracket = _Bracket(edge_id)
            brackets_by_edge[edge_id] = bracket
            blist.push(bracket)
        if hi2 < dfsnum[node]:
            capping = _Bracket(None, is_capping=True)
            capping_at[tree.node_at[hi2]].append(capping)
            blist.push(capping)

        blists[node] = blist

        # -- class of the tree edge (parent, node) --------------------------------
        parent_edge = tree.parent_edge[node]
        if parent_edge is None:
            continue
        if blist.size == 0:
            # A bridge: no bracket spans the tree edge, it is in a class of
            # its own (it lies on no cycle).
            classes[parent_edge] = next(class_counter)
            continue
        top = blist.top()
        if top.recent_size != blist.size:
            top.recent_size = blist.size
            top.recent_class = next(class_counter)
        classes[parent_edge] = top.recent_class
        if top.recent_size == 1 and top.edge_id is not None:
            classes[top.edge_id] = classes[parent_edge]
