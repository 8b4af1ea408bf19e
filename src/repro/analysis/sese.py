"""Single-entry single-exit (SESE) regions.

A SESE region is an ordered pair of CFG edges ``(entry_edge, exit_edge)``
such that the entry edge dominates the exit edge, the exit edge
post-dominates the entry edge, and the two edges are cycle equivalent
(every cycle containing one contains the other).  The blocks of the region
are exactly the blocks dominated by the entry edge and post-dominated by the
exit edge.  Both halves are read off the session's two block trees: for a
class ordered along its chain, region ``(u, v) ... (x, y)`` holds the blocks
that ``v`` dominates and ``x`` post-dominates.  One depth-first walk orders
every class.  The definition keeps a loop tail reached only after the exit
edge and looping back through the entry edge inside the region (see
``docs/paper_mapping.md``).

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


def _dfs_edge_numbers(cfg) -> Dict[EdgeKey, int]:
    """Number every edge in the order one depth-first walk from the entry examines it.

    An edge that dominates another lies on the DFS tree path to the other's
    source, so it is examined first: sorted by this number, a
    cycle-equivalence class runs along its dominance chain (Johnson, Pearson
    and Pingali order classes the same way).  Edges out of blocks the entry
    cannot reach get no number.
    """

    out_edges = cfg.out_edges
    entry = cfg.entry_label
    numbers: Dict[EdgeKey, int] = {}
    visited = {entry}
    stack = [iter(out_edges[entry])]
    while stack:
        for edge in stack[-1]:
            numbers.setdefault(edge.key, len(numbers))
            if edge.dst not in visited:
                visited.add(edge.dst)
                stack.append(iter(out_edges[edge.dst]))
                break
        else:
            stack.pop()
    return numbers


def _collect_regions(
    function: Function, pair_selector, session: Optional[CompilationSession]
) -> List[SESERegion]:
    if len(function) < 2:
        return []
    session = session_for(function, session)
    dom, postdom = session.dom, session.postdom
    numbers = _dfs_edge_numbers(session.cfg)
    by_class: Dict[int, List[EdgeKey]] = {}
    for edge_key, class_id in compute_edge_classes(function, session).items():
        if edge_key in numbers:
            by_class.setdefault(class_id, []).append(edge_key)

    regions: List[SESERegion] = []
    for class_edges in by_class.values():
        if len(class_edges) < 2:
            continue
        class_edges.sort(key=numbers.__getitem__)
        for entry_edge, exit_edge in pair_selector(class_edges):
            # Dominated by the entry edge's target and post-dominated by the
            # exit edge's source; a block that cannot reach the exit is in no
            # region.
            blocks = frozenset(
                postdom.dominated_among(exit_edge[0], dom.descendants(entry_edge[1]))
            )
            if blocks:
                regions.append(SESERegion(entry_edge, exit_edge, blocks))
    regions.sort(key=lambda r: (len(r.blocks), r.entry_edge, r.exit_edge))
    return regions


def find_canonical_regions(
    function: Function, session: Optional[CompilationSession] = None
) -> List[SESERegion]:
    """The canonical (smallest) SESE regions: consecutive class edges."""

    def pairs(chain: List[EdgeKey]):
        return [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]

    return _collect_regions(function, pairs, session)


def find_maximal_regions(
    function: Function, session: Optional[CompilationSession] = None
) -> List[SESERegion]:
    """The maximal SESE regions used by the hierarchical placement algorithm."""

    def pairs(chain: List[EdgeKey]):
        return [(chain[0], chain[-1])]

    return _collect_regions(function, pairs, session)
