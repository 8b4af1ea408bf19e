"""Single-entry single-exit (SESE) regions.

A SESE region is an ordered pair of CFG edges ``(entry_edge, exit_edge)``
such that the entry edge dominates the exit edge, the exit edge
post-dominates the entry edge, and the two edges are cycle equivalent
(every cycle containing one contains the other).  The blocks of the region
are exactly the blocks dominated by the entry edge and post-dominated by the
exit edge.

Two flavours are produced:

* *canonical* regions — delimited by consecutive edges of a cycle-equivalence
  class (the smallest regions, as defined by Johnson, Pearson and Pingali);
* *maximal* regions — delimited by the first and last edge of a class.  The
  paper's hierarchical spill-placement algorithm uses maximal regions: a SESE
  region ``(a, b)`` is maximal provided ``b`` post-dominates ``b'`` for any
  SESE region ``(a, b')`` and ``a`` dominates ``a'`` for any SESE region
  ``(a', b)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.cycle_equiv import UndirectedMultigraph, cycle_equivalence_classes
from repro.analysis.dominance import EdgeDominance
from repro.analysis.session import CompilationSession, session_for
from repro.ir.function import Function

EdgeKey = Tuple[str, str]

#: Identifier of the synthetic exit-to-entry edge added before computing
#: cycle equivalence (Johnson et al. require a strongly connected graph).
VIRTUAL_RETURN_EDGE: EdgeKey = ("__exit__", "__entry__")


@dataclass(frozen=True)
class SESERegion:
    """A single-entry single-exit region delimited by two CFG edges."""

    entry_edge: EdgeKey
    exit_edge: EdgeKey
    blocks: FrozenSet[str]

    def describe(self) -> str:
        entry = "->".join(self.entry_edge)
        exit_ = "->".join(self.exit_edge)
        return f"[{entry} ... {exit_}] ({len(self.blocks)} blocks)"

    def __str__(self) -> str:
        return self.describe()


def build_augmented_graph(
    function: Function, session: Optional[CompilationSession] = None
) -> UndirectedMultigraph:
    """Undirected view of the CFG plus the exit-to-entry return edge."""

    cfg = session_for(function, session).cfg
    graph = UndirectedMultigraph()
    for label in cfg.labels:
        graph.add_node(label)
    for edge in cfg.edges:
        graph.add_edge(edge.src, edge.dst, edge.key)
    entry = cfg.entry_label
    exit_label = cfg.exit_label
    if entry != exit_label or cfg.edges:
        graph.add_edge(exit_label, entry, VIRTUAL_RETURN_EDGE)
    return graph


def compute_edge_classes(
    function: Function, session: Optional[CompilationSession] = None
) -> Dict[EdgeKey, int]:
    """Cycle-equivalence class of every real CFG edge."""

    session = session_for(function, session)
    graph = build_augmented_graph(function, session)
    classes = cycle_equivalence_classes(graph, root=session.cfg.entry_label)
    return {key: cls for key, cls in classes.items() if key != VIRTUAL_RETURN_EDGE}


def _region_blocks(
    dominance: EdgeDominance, entry_edge: EdgeKey, exit_edge: EdgeKey
) -> FrozenSet[str]:
    """Blocks dominated by ``entry_edge`` and post-dominated by ``exit_edge``.

    Only the entry edge's dominator subtree can hold region blocks, so the
    candidates are enumerated from it rather than from the whole function.
    """

    return frozenset(
        label
        for label in dominance.blocks_dominated_by_edge(entry_edge)
        if dominance.edge_postdominates_block(exit_edge, label)
    )


def _ordered_class_edges(edges: List[EdgeKey], dominance: EdgeDominance) -> List[EdgeKey]:
    """Order the edges of one cycle-equivalence class along the dominance chain."""

    return sorted(edges, key=dominance.edge_depth)


def _chain_runs(edges: List[EdgeKey], dominance: EdgeDominance) -> List[List[EdgeKey]]:
    """Split an ordered class into maximal runs of valid consecutive pairs.

    For a well-formed CFG every pair of consecutive class edges satisfies the
    dominance conditions; the run splitting only guards against degenerate
    graphs.
    """

    runs: List[List[EdgeKey]] = []
    current: List[EdgeKey] = []
    for edge in edges:
        if not current:
            current = [edge]
            continue
        previous = current[-1]
        if dominance.edge_dominates_edge(previous, edge) and dominance.edge_postdominates_edge(
            edge, previous
        ):
            current.append(edge)
        else:
            runs.append(current)
            current = [edge]
    if current:
        runs.append(current)
    return [run for run in runs if len(run) >= 2]


def _collect_regions(
    function: Function, pair_selector, session: Optional[CompilationSession]
) -> List[SESERegion]:
    if len(function) < 2:
        return []
    session = session_for(function, session)
    dominance = session.edge_dominance
    classes = compute_edge_classes(function, session)
    by_class: Dict[int, List[EdgeKey]] = {}
    for edge_key, class_id in classes.items():
        by_class.setdefault(class_id, []).append(edge_key)

    regions: List[SESERegion] = []
    seen: set = set()
    for class_edges in by_class.values():
        if len(class_edges) < 2:
            continue
        ordered = _ordered_class_edges(class_edges, dominance)
        for run in _chain_runs(ordered, dominance):
            for entry_edge, exit_edge in pair_selector(run):
                key = (entry_edge, exit_edge)
                if key in seen:
                    continue
                seen.add(key)
                blocks = _region_blocks(dominance, entry_edge, exit_edge)
                if blocks:
                    regions.append(SESERegion(entry_edge, exit_edge, blocks))
    regions.sort(key=lambda r: (len(r.blocks), r.entry_edge, r.exit_edge))
    return regions


def find_canonical_regions(
    function: Function, session: Optional[CompilationSession] = None
) -> List[SESERegion]:
    """The canonical (smallest) SESE regions: consecutive class edges."""

    def pairs(run: List[EdgeKey]):
        return [(run[i], run[i + 1]) for i in range(len(run) - 1)]

    return _collect_regions(function, pairs, session)


def find_maximal_regions(
    function: Function, session: Optional[CompilationSession] = None
) -> List[SESERegion]:
    """The maximal SESE regions used by the hierarchical placement algorithm."""

    def pairs(run: List[EdgeKey]):
        return [(run[0], run[-1])]

    return _collect_regions(function, pairs, session)
