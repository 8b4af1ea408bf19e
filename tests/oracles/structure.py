"""Reference versions of the dominance, SESE-region and PST-nesting queries.

These are the original, obviously-correct formulations that
:mod:`repro.analysis` replaced with size-linear ones: an idom-chain walk for
dominance, a scan of every block against every region for region block sets,
and a strict-superset scan over all regions for PST nesting.  They stay here
as test oracles; the property tests compare the shipped analyses with them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from repro.analysis.dominance import DominatorTree, EdgeDominance
from repro.analysis.sese import SESERegion, _chain_runs, compute_edge_classes
from repro.ir.function import Function

EdgeKey = Tuple[str, str]


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


# -- SESE regions ----------------------------------------------------------------


def scan_region_blocks(
    function: Function, dominance: EdgeDominance, entry_edge: EdgeKey, exit_edge: EdgeKey
) -> FrozenSet[str]:
    """Test every block of the function against the region's two edges."""

    dom, postdom = dominance._dom, dominance._postdom
    entry_node = dominance.node_for(entry_edge)
    exit_node = dominance.node_for(exit_edge)
    return frozenset(
        label
        for label in function.block_labels
        if chain_dominates(dom, entry_node, ("block", label))
        and chain_dominates(postdom, exit_node, ("block", label))
    )


def scan_regions(function: Function, maximal: bool) -> List[SESERegion]:
    """Maximal or canonical SESE regions, built with the reference queries."""

    if len(function) < 2:
        return []
    dominance = EdgeDominance(function)
    by_class: Dict[int, List[EdgeKey]] = {}
    for edge_key, class_id in compute_edge_classes(function).items():
        by_class.setdefault(class_id, []).append(edge_key)

    def depth(edge: EdgeKey) -> int:
        return chain_depth(dominance._dom, dominance.node_for(edge))

    regions: List[SESERegion] = []
    seen: set = set()
    for class_edges in by_class.values():
        if len(class_edges) < 2:
            continue
        for run in _chain_runs(sorted(class_edges, key=depth), dominance):
            if maximal:
                pairs = [(run[0], run[-1])]
            else:
                pairs = [(run[i], run[i + 1]) for i in range(len(run) - 1)]
            for pair in pairs:
                if pair in seen:
                    continue
                seen.add(pair)
                blocks = scan_region_blocks(function, dominance, *pair)
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


def scan_smallest_region_containing(regions: Sequence, label: str):
    """The first region of minimal size holding ``label`` (``regions[0]`` is the root)."""

    best = regions[0]
    for region in regions:
        if label in region.blocks and len(region.blocks) < len(best.blocks):
            best = region
    return best
