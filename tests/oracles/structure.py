"""Reference versions of the cycle-equivalence, dominance, SESE-region and
PST-nesting queries.

These are the original, obviously-correct formulations that
:mod:`repro.analysis` replaced with size-linear ones: the definition of
cycle equivalence checked edge pair by edge pair, an idom-chain walk for
dominance, two iterative solves on the edge-split graph for edge dominance
(whose depth orders each cycle-equivalence class, split into runs of valid
pairs), a scan of every block against every region for region block sets,
and a strict-superset scan over all regions for PST nesting.  They stay
here as test oracles; the property tests compare the shipped analyses with
them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from repro.analysis.cycle_equiv import EdgeId, NodeId, UndirectedMultigraph
from repro.analysis.dominance import DominatorTree, compute_dominators_of_graph
from repro.analysis.graph import DiGraph
from repro.analysis.pst import Region
from repro.analysis.sese import SESERegion, compute_edge_classes
from repro.ir.function import Function

EdgeKey = Tuple[str, str]


# -- cycle equivalence -------------------------------------------------------------


def connected_without(
    graph: UndirectedMultigraph, excluded: Set[EdgeId], start: NodeId, goal: NodeId
) -> bool:
    """True when ``goal`` is reachable from ``start`` avoiding ``excluded`` edges."""

    if start == goal:
        return True
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for neighbour, edge_id in graph.adjacency(node):
            if edge_id in excluded or neighbour in seen:
                continue
            if neighbour == goal:
                return True
            seen.add(neighbour)
            stack.append(neighbour)
    return False


def edge_on_some_cycle(
    graph: UndirectedMultigraph, edge_id: EdgeId, excluded: Set[EdgeId]
) -> bool:
    """True when ``edge_id`` lies on a cycle of the graph minus ``excluded``."""

    if edge_id in excluded:
        return False
    u, v = graph.endpoints(edge_id)
    if u == v:
        return True  # a self loop is itself a cycle
    return connected_without(graph, excluded | {edge_id}, u, v)


def brute_force_cycle_equivalent(
    graph: UndirectedMultigraph, e1: EdgeId, e2: EdgeId
) -> bool:
    """Decide cycle equivalence of two edges directly from the definition.

    One deliberate deviation from the vacuous reading of the definition:
    *bridges* (edges on no cycle at all) are treated as singleton classes
    instead of all being mutually equivalent.  CFGs augmented with the
    exit-to-entry edge never contain bridges, so the choice does not affect
    SESE regions; it only keeps this oracle aligned with the bracket
    algorithm on arbitrary test graphs.
    """

    if e1 == e2:
        return True
    # Bridges lie on no cycle; give each its own class (see docstring).
    if not edge_on_some_cycle(graph, e1, set()) or not edge_on_some_cycle(graph, e2, set()):
        return False
    # Every cycle containing e1 contains e2  <=>  e1 lies on no cycle of G - e2.
    first = not edge_on_some_cycle(graph, e1, {e2})
    second = not edge_on_some_cycle(graph, e2, {e1})
    return first and second


def brute_force_cycle_equivalence(graph: UndirectedMultigraph) -> Dict[EdgeId, int]:
    """Assign equivalence-class ids to every edge using the brute-force test."""

    classes: Dict[EdgeId, int] = {}
    representatives: List[EdgeId] = []
    for edge_id in graph.edge_ids:
        assigned = False
        for class_id, representative in enumerate(representatives):
            if brute_force_cycle_equivalent(graph, edge_id, representative):
                classes[edge_id] = class_id
                assigned = True
                break
        if not assigned:
            classes[edge_id] = len(representatives)
            representatives.append(edge_id)
    return classes


# -- dominance ------------------------------------------------------------------


def chain_dominates(tree: DominatorTree, a: Hashable, b: Hashable) -> bool:
    """``a`` dominates ``b``: walk ``b``'s idom chain up to the root."""

    node = b
    while node is not None:
        if node == a:
            return True
        if node == tree.root:
            return False
        node = tree.idom(node)
    return False


def chain_depth(tree: DominatorTree, node: Hashable) -> int:
    return len(tree.dominators_of(node)) - 1


def chain_descendants(tree: DominatorTree, node: Hashable) -> Set[Hashable]:
    return {other for other in tree.nodes if chain_dominates(tree, node, other)}


def edge_split_graph(function) -> Tuple[DiGraph, Hashable, Hashable, Dict[EdgeKey, Hashable]]:
    """A graph where every CFG edge is represented by a synthetic node.

    Each CFG edge ``(u, v)`` becomes a node ``("edge", u, v)`` spliced between
    ``("block", u)`` and ``("block", v)``; node dominance on this graph is
    edge dominance.  The virtual procedure entry and exit edges are included
    so they can delimit the root region.

    Returns ``(graph, entry_edge_node, exit_edge_node, edge_node_map)`` where
    ``edge_node_map`` maps each real CFG edge key to its synthetic node.
    """

    graph = DiGraph()
    entry_node = ("edge", "__entry__", function.entry.label)
    exit_node = ("edge", function.exit.label, "__exit__")
    edge_nodes: Dict[EdgeKey, Hashable] = {}

    for label in function.block_labels:
        graph.add_node(("block", label))

    graph.add_node(entry_node)
    graph.add_edge(entry_node, ("block", function.entry.label))
    graph.add_node(exit_node)
    graph.add_edge(("block", function.exit.label), exit_node)

    for edge in function.edges():
        node = ("edge", edge.src, edge.dst)
        edge_nodes[edge.key] = node
        graph.add_edge(("block", edge.src), node)
        graph.add_edge(node, ("block", edge.dst))

    return graph, entry_node, exit_node, edge_nodes


def solved_edge_trees(function) -> Tuple[DominatorTree, DominatorTree]:
    """Edge-split dominator and post-dominator trees by two iterative solves."""

    graph, entry_node, exit_node, _edges = edge_split_graph(function)
    return (
        compute_dominators_of_graph(graph, entry_node),
        compute_dominators_of_graph(graph.reversed(), exit_node),
    )


# -- SESE regions ----------------------------------------------------------------


#: ``(seed, index)`` of the ``chaos_cfg`` draws among seeds 0-199 whose
#: maximal regions include a loop tail: a block reached only after the exit
#: edge that loops back through the entry edge (see ``forward_between``).
LOOP_TAIL_CHAOS_CASES: Tuple[Tuple[int, int], ...] = (
    (6, 1), (14, 1), (36, 3), (59, 0), (153, 2), (155, 0), (155, 4),
    (161, 1), (169, 2), (180, 5), (181, 2), (185, 4), (185, 5),
)


def forward_between(function: Function, entry_edge: EdgeKey, exit_edge: EdgeKey) -> Set[str]:
    """Blocks reached from the entry edge without taking either boundary edge.

    The "between the entry and exit edge" reading of a region: it leaves out
    a loop tail, which the dominance definition keeps.
    """

    succs = function.cfg().succs
    seen: Set[str] = set()
    stack = [entry_edge[1]]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(s for s in succs[label] if (label, s) not in (entry_edge, exit_edge))
    return seen


def _tree_dominates(tree: DominatorTree, a: Hashable, b: Hashable) -> bool:
    """``chain_dominates``, false when ``b`` is outside the tree (unreachable)."""

    return b in tree and chain_dominates(tree, a, b)


def scan_region_blocks(
    function: Function,
    trees: Tuple[DominatorTree, DominatorTree],
    entry_edge: EdgeKey,
    exit_edge: EdgeKey,
) -> FrozenSet[str]:
    """Test every block against the region's two edges on the solved edge-split trees."""

    dom, postdom = trees
    entry_node, exit_node = ("edge",) + entry_edge, ("edge",) + exit_edge
    return frozenset(
        label
        for label in function.block_labels
        if _tree_dominates(dom, entry_node, ("block", label))
        and _tree_dominates(postdom, exit_node, ("block", label))
    )


def chain_runs(
    edges: List[EdgeKey], trees: Tuple[DominatorTree, DominatorTree]
) -> List[List[EdgeKey]]:
    """Split a depth-ordered class into maximal runs of valid consecutive pairs.

    A pair is valid when the first edge dominates the second and the second
    post-dominates the first.  Runs shorter than two edges delimit nothing.
    """

    dom, postdom = trees
    runs: List[List[EdgeKey]] = []
    for edge in edges:
        if runs:
            previous = ("edge",) + runs[-1][-1]
            node = ("edge",) + edge
            if _tree_dominates(dom, previous, node) and _tree_dominates(postdom, node, previous):
                runs[-1].append(edge)
                continue
        runs.append([edge])
    return [run for run in runs if len(run) >= 2]


def scan_regions(function: Function, maximal: bool) -> List[SESERegion]:
    """Maximal or canonical SESE regions, built with the reference queries.

    Each cycle-equivalence class is ordered by depth in the solved edge
    dominator tree and split into runs of valid pairs; edges the entry cannot
    reach have no depth and are left out.
    """

    if len(function) < 2:
        return []
    trees = solved_edge_trees(function)
    dom = trees[0]
    by_class: Dict[int, List[EdgeKey]] = {}
    for edge_key, class_id in compute_edge_classes(function).items():
        if ("edge",) + edge_key in dom:
            by_class.setdefault(class_id, []).append(edge_key)

    regions: List[SESERegion] = []
    for class_edges in by_class.values():
        ordered = sorted(class_edges, key=lambda edge: chain_depth(dom, ("edge",) + edge))
        for run in chain_runs(ordered, trees):
            if maximal:
                pairs = [(run[0], run[-1])]
            else:
                pairs = [(run[i], run[i + 1]) for i in range(len(run) - 1)]
            for pair in pairs:
                blocks = scan_region_blocks(function, trees, *pair)
                if blocks:
                    regions.append(SESERegion(pair[0], pair[1], blocks))
    regions.sort(key=lambda r: (len(r.blocks), r.entry_edge, r.exit_edge))
    return regions


# -- PST nesting -----------------------------------------------------------------


def superset_scan_parents(root, by_size: Sequence) -> Dict[int, int]:
    """Region id -> parent id: the smallest strict superset, first on a tie."""

    parents: Dict[int, int] = {}
    for region in by_size:
        candidates = [
            other for other in by_size if other is not region and region.blocks < other.blocks
        ]
        parent = min(candidates, key=lambda r: len(r.blocks)) if candidates else root
        parents[region.identifier] = parent.identifier
    return parents


def superset_scan_children(root, by_size: Sequence) -> Dict[int, List[int]]:
    """Region id -> child ids in the order the reference nesting appends them."""

    children: Dict[int, List[int]] = {root.identifier: []}
    for region in by_size:
        children[region.identifier] = []
    for child, parent in superset_scan_parents(root, by_size).items():
        children[parent].append(child)
    return children


def scan_pst_shape(function: Function, sese_regions: Sequence[SESERegion]) -> List[Tuple]:
    """The PST that ``sese_regions`` (from :func:`scan_regions`) and the superset scan give.

    One row per region, ``(id, entry edge, exit edge, blocks, parent id,
    child ids)``, in id order (the root, id 0, first), then one row holding
    the children-before-parents walk, children visited smallest first.
    """

    labels = frozenset(function.block_labels)
    root = Region(0, ("__entry__", function.entry.label), (function.exit.label, "__exit__"), labels)
    regions = [
        Region(index, r.entry_edge, r.exit_edge, r.blocks)
        for index, r in enumerate(sese_regions, start=1)
        if r.blocks != labels
    ]
    by_size = sorted(regions, key=lambda r: len(r.blocks))
    parents = superset_scan_parents(root, by_size)
    children = superset_scan_children(root, by_size)
    by_id = {r.identifier: r for r in [root] + regions}

    def walk(identifier: int) -> List[int]:
        order: List[int] = []
        kids = sorted(
            children[identifier],
            key=lambda i: (len(by_id[i].blocks), by_id[i].entry_edge),
        )
        for child in kids:
            order += walk(child)
        return order + [identifier]

    rows: List[Tuple] = [
        (r.identifier, r.entry_edge, r.exit_edge, r.blocks, parents.get(r.identifier),
         children[r.identifier])
        for r in [root] + regions
    ]
    return rows + [tuple(walk(0))]


def scan_smallest_region_containing(regions: Sequence, label: str):
    """The first region of minimal size holding ``label`` (``regions[0]`` is the root)."""

    best = regions[0]
    for region in regions:
        if label in region.blocks and len(region.blocks) < len(best.blocks):
            best = region
    return best
