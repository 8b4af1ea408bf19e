"""The program structure tree (PST).

The PST is the hierarchical representation of a procedure's SESE regions:
the root is the whole procedure, interior nodes are SESE regions, and nesting
follows region containment.  The hierarchical spill-placement algorithm walks
the PST in topological (children before parents) order, asking at every
region whether the save/restore sets it contains should be hoisted to the
region boundaries.

Following the paper, the PST is built from *maximal* SESE regions by default;
canonical regions are available for the ablation study.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.session import CompilationSession, session_for
from repro.analysis.sese import SESERegion, find_canonical_regions, find_maximal_regions
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function

EdgeKey = Tuple[str, str]


@dataclass
class Region:
    """A node of the program structure tree."""

    identifier: int
    entry_edge: EdgeKey
    exit_edge: EdgeKey
    blocks: FrozenSet[str]
    is_root: bool = False
    parent: Optional["Region"] = None
    children: List["Region"] = field(default_factory=list)

    def contains_region(self, other: "Region") -> bool:
        return other is not self and other.blocks <= self.blocks

    @property
    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def describe(self) -> str:
        kind = "procedure" if self.is_root else "region"
        entry = "->".join(self.entry_edge)
        exit_ = "->".join(self.exit_edge)
        return f"{kind} {self.identifier}: [{entry} ... {exit_}] {len(self.blocks)} blocks"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Region {self.identifier} blocks={sorted(self.blocks)}>"


class ProgramStructureTree:
    """The PST of one function."""

    def __init__(
        self,
        function: Function,
        root: Region,
        regions: List[Region],
        innermost: Dict[str, Region],
    ):
        self.function = function
        self.root = root
        self._regions = regions  # includes the root, ordered by construction
        self._innermost = innermost  # block label -> smallest region holding it

    # -- queries ------------------------------------------------------------------

    def regions(self) -> List[Region]:
        """All regions including the root."""

        return list(self._regions)

    def interior_regions(self) -> List[Region]:
        """All regions except the root."""

        return [r for r in self._regions if not r.is_root]

    def region_count(self) -> int:
        return len(self._regions)

    def smallest_region_containing(self, label: str) -> Region:
        """The innermost region whose block set contains ``label``."""

        return self._innermost.get(label, self.root)

    def topological_order(self) -> List[Region]:
        """Regions ordered children-before-parents (the traversal the paper uses).

        Every region appears after all of its descendants, so when the
        hierarchical placement algorithm reaches a region, all smaller
        regions nested inside it have already been analysed.
        """

        # Iterative post-order (a deep nest would overflow recursion): each
        # region is pushed twice, and popped the second time after its
        # children, which are visited in (size, entry edge) order.
        order: List[Region] = []
        stack: List[Tuple[Region, bool]] = [(self.root, False)]
        while stack:
            region, children_done = stack.pop()
            if children_done:
                order.append(region)
                continue
            stack.append((region, True))
            children = sorted(region.children, key=lambda r: (len(r.blocks), r.entry_edge))
            stack.extend((child, False) for child in reversed(children))
        return order

    def depth(self) -> int:
        return max((region.depth for region in self._regions), default=0)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)


def build_pst(
    function: Function, maximal: bool = True, session: Optional[CompilationSession] = None
) -> ProgramStructureTree:
    """Build the program structure tree of ``function``.

    Parameters
    ----------
    maximal:
        Use maximal SESE regions (the paper's choice).  When false, canonical
        regions are used instead; this exists for the ablation benchmark.
    session:
        The function's :class:`~repro.analysis.session.CompilationSession`;
        its CFG snapshot and block dominator trees are reused.
    """

    session = session_for(function, session)
    find_regions = find_maximal_regions if maximal else find_canonical_regions
    sese_regions = find_regions(function, session)
    ids = itertools.count(1)

    cfg = session.cfg
    root = Region(
        identifier=0,
        entry_edge=(ENTRY_SENTINEL, cfg.entry_label),
        exit_edge=(cfg.exit_label, EXIT_SENTINEL),
        blocks=frozenset(cfg.labels),
        is_root=True,
    )

    regions = [
        Region(
            identifier=next(ids),
            entry_edge=r.entry_edge,
            exit_edge=r.exit_edge,
            blocks=r.blocks,
        )
        for r in sese_regions
    ]

    # Drop any region that coincides with the whole procedure: the root
    # already represents it and its boundaries are the procedure entry/exit.
    regions = [r for r in regions if r.blocks != root.blocks]

    by_size, innermost = _nest_regions(root, regions)
    return ProgramStructureTree(function, root, [root] + by_size, innermost)


def _nest_regions(
    root: Region, regions: List[Region]
) -> Tuple[List[Region], Dict[str, Region]]:
    """Set every region's parent and children; return ``(by_size, innermost)``.

    The parent of a region is the smallest region whose block set strictly
    contains it (the first in size order on a tie); the root catches
    everything else.  Regions are nearly always nested or disjoint, so one
    pass from the largest region to the smallest over a block ->
    innermost-region map finds every parent: all of a region's blocks map
    to the same enclosing region, and a region with the same block set as
    that enclosing region shares its parent.  Canonical regions of some
    irreducible flowgraphs overlap; a region whose blocks map to several
    regions takes the strict-superset scan instead.  The final map answers
    :meth:`ProgramStructureTree.smallest_region_containing`.
    """

    by_size = sorted(regions, key=lambda r: len(r.blocks))
    innermost: Dict[str, Region] = dict.fromkeys(root.blocks, root)
    for region in reversed(by_size):
        enclosing = {id(innermost[label]): innermost[label] for label in region.blocks}
        if len(enclosing) == 1:
            parent = next(iter(enclosing.values()))
            if parent.blocks == region.blocks:
                parent = parent.parent
        else:
            parent = min(
                (other for other in by_size if region.blocks < other.blocks),
                key=lambda r: len(r.blocks),
                default=root,
            )
        region.parent = parent
        for label in region.blocks:
            innermost[label] = region
    for region in by_size:
        region.parent.children.append(region)
    return by_size, innermost
