"""Grouping save/restore locations into save/restore sets.

The paper groups save and restore locations with the same data-flow
machinery used for variable webs: a save begins a "web", restores terminate
it, and locations that are reachable from each other without crossing other
locations of the same register belong to the same set.  Sets are the unit the
hierarchical algorithm moves around: either a whole set stays where it is, or
the whole set is replaced by a save/restore pair at a region boundary.

Grouping runs on edge numbers (:class:`repro.ir.cfg.PlacementEdges`): one
register's saves and restores are two ``int`` masks, each save's reached
locations form one mask pair, pairs sharing a location merge (a union-find
over edge numbers), and a :class:`SaveRestoreSet` object is built once, for
a set a placement keeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.bitset import bit_positions
from repro.analysis.session import CompilationSession
from repro.ir.cfg import PlacementEdges
from repro.ir.values import PhysicalRegister
from repro.spill.model import SaveRestoreSet, SpillKind, SpillLocation


def in_key_order(edges: PlacementEdges, mask: int) -> List[int]:
    """``mask``'s edges in key order: how locations are listed, priced and summed."""

    if not mask & (mask - 1):
        return [mask.bit_length() - 1] if mask else []
    return sorted(bit_positions(mask), key=edges.rank.__getitem__)


def location_masks(
    edges: PlacementEdges, locations: Iterable[SpillLocation]
) -> Tuple[int, int, List[SpillLocation]]:
    """The save and restore edge masks of ``locations``, and those on no CFG edge."""

    number = edges.number
    saves = restores = 0
    strays: List[SpillLocation] = []
    for location in locations:
        n = number.get(location.edge)
        if n is None:
            strays.append(location)
        elif location.kind is SpillKind.SAVE:
            saves |= 1 << n
        else:
            restores |= 1 << n
    return saves, restores, strays


def set_masks(session: CompilationSession, srset: SaveRestoreSet) -> Tuple:
    """:func:`location_masks` of one set, memoized on the ``session`` (and by :func:`edge_set`)."""

    masks = session.set_masks.get(srset.locations)
    if masks is None:
        edges = session.cfg.placement_edges()
        masks = session.set_masks[srset.locations] = location_masks(edges, srset.locations)
    return masks


def group_edges(edges: PlacementEdges, saves: int, restores: int) -> List[Tuple[int, int]]:
    """Partition one register's save and restore edges into save/restore sets.

    A save and a location belong to the same set when the location is
    reachable from the save along CFG paths that cross no other location of
    the register, i.e. when they delimit the same saved region.  Restores
    shared by several saves merge those saves into one set.  Returns one
    ``(saves, restores)`` mask pair per set, sets ordered by their sorted
    edge keys.
    """

    stops = set(bit_positions(saves | restores))
    out, dst = edges.out, edges.dst
    groups: List[Tuple[int, int]] = []
    for save in bit_positions(saves):
        # Depth-first through the saved region this save opens; the region
        # ends at the first location on each path.
        reached = 0
        visited = set()
        frontier = [dst[save]] if dst[save] >= 0 else []
        while frontier:
            block = frontier.pop()
            if block in visited:
                continue
            visited.add(block)
            for n in out[block]:
                if n in stops:
                    reached |= 1 << n
                elif dst[n] >= 0:
                    frontier.append(dst[n])
        # One set with every set it shares a location with.
        group = (1 << save | reached & saves, reached & restores)
        for other in [g for g in groups if g[0] & group[0] or g[1] & group[1]]:
            groups.remove(other)
            group = (group[0] | other[0], group[1] | other[1])
        groups.append(group)
    covered = 0
    for group in groups:
        covered |= group[1]
    groups += [(0, 1 << n) for n in bit_positions(restores & ~covered)]
    if len(groups) < 2:
        return groups
    rank = edges.rank

    def order(group: Tuple[int, int]) -> Tuple[List[int], Tuple[int, int]]:
        # By sorted edge keys, then by first location (saves first).
        saves_, restores_ = ([rank[n] for n in bit_positions(mask)] for mask in group)
        return sorted(saves_ + restores_), (0, min(saves_)) if saves_ else (1, min(restores_))

    return sorted(groups, key=order)


def edge_set(
    edges: PlacementEdges, masks: Dict, register: PhysicalRegister, saves: int, restores: int,
    initial: bool = True,
) -> SaveRestoreSet:
    """The set with saves on ``saves`` and restores on ``restores``, recorded in ``masks``.

    ``masks`` is a session's :func:`set_masks` memo.
    """

    locations = [
        SpillLocation(register, kind, edges.keys[n])
        for kind, mask in ((SpillKind.SAVE, saves), (SpillKind.RESTORE, restores))
        for n in in_key_order(edges, mask)
    ]
    srset = SaveRestoreSet.from_locations(register, locations, initial)
    masks[srset.locations] = (saves, restores, [])
    return srset


class RegisterSets:
    """One register's save/restore sets as ``(saves, restores)`` mask pairs.

    Each set object is built on first use, so one no placement keeps is never built.
    """

    def __init__(self, session: CompilationSession, register: PhysicalRegister, pairs: List[Tuple]):
        self.edges, self.masks = session.cfg.placement_edges(), session.set_masks
        self.register, self.pairs = register, pairs
        self._built: List[Optional[SaveRestoreSet]] = [None] * len(pairs)

    def set_at(self, index: int) -> SaveRestoreSet:
        srset = self._built[index]
        if srset is None:
            saves, restores = self.pairs[index]
            srset = edge_set(self.edges, self.masks, self.register, saves, restores)
            self._built[index] = srset
        return srset

    def sets(self) -> List[SaveRestoreSet]:
        return [self.set_at(index) for index in range(len(self.pairs))]
