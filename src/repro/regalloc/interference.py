"""Interference graphs over virtual registers.

Two virtual registers interfere when one is defined at a point where the
other is live (the classic Chaitin construction); move instructions get the
usual exemption so that copy-related registers may share a colour.

The graph is dense-indexed, as Briggs, Cooper & Torczon keep it: every node
is a bit of the round's :class:`~repro.analysis.bitset.RegisterIndex`, its
adjacency is one integer mask, and move partners are bit lists.  The edges
come from the allocation round's single instruction scan
(:func:`repro.regalloc.live_ranges.scan_edges`); ``Register`` objects
appear only at the public accessors.  The set-based construction this
replaced is kept as a test oracle in ``tests/oracles/regalloc.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.bitset import RegisterIndex
from repro.analysis.liveness import LivenessInfo
from repro.ir.function import Function
from repro.ir.values import Register
from repro.regalloc.live_ranges import scan_edges


class InterferenceGraph:
    """An undirected graph over registers, one adjacency mask per bit.

    Read-only: :func:`build_interference_graph` is the one constructor.
    """

    def __init__(
        self,
        index: RegisterIndex,
        node_mask: int,
        adjacency: List[int],
        moves: List[Tuple[int, int]],
    ):
        self.index = index
        #: Bits of the graph's nodes.
        self.node_mask = node_mask
        #: Neighbour mask per bit (``adjacency[bit]``).
        self.adjacency = adjacency
        #: Copy-related ``(destination, source)`` bit pairs, distinct.
        self.moves = moves
        #: Move partners per bit, both directions.
        self.partners: Dict[int, List[int]] = {}
        for dst, src in moves:
            self.partners.setdefault(dst, []).append(src)
            self.partners.setdefault(src, []).append(dst)

    def _mask_of(self, register: Register) -> int:
        if register not in self.index or not self.node_mask >> self.index.bit_of(register) & 1:
            return 0
        return self.adjacency[self.index.bit_of(register)]

    @property
    def nodes(self) -> Set[Register]:
        return self.index.set_of(self.node_mask)  # hotpath: ok (public accessor)

    def interferes(self, a: Register, b: Register) -> bool:
        return b in self.index and bool(self._mask_of(a) >> self.index.bit_of(b) & 1)

    def neighbours(self, register: Register) -> Set[Register]:
        return self.index.set_of(self._mask_of(register))  # hotpath: ok (public accessor)

    def degree(self, register: Register) -> int:
        return self._mask_of(register).bit_count()

    def num_edges(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    @property
    def move_pairs(self) -> FrozenSet[Tuple[Register, Register]]:
        facts = self.index.facts
        return frozenset((facts[dst], facts[src]) for dst, src in self.moves)

    def move_partners(self, register: Register) -> Set[Register]:
        facts = self.index.facts
        return {facts[src] for dst, src in self.moves if facts[dst] == register} | {
            facts[dst] for dst, src in self.moves if facts[src] == register
        }


def build_interference_graph(
    function: Function, liveness: LivenessInfo
) -> InterferenceGraph:
    """Chaitin-style interference graph over the virtual registers of ``function``.

    ``liveness`` must describe ``function`` as it is now: the edges are the
    ones :func:`~repro.regalloc.live_ranges.scan_edges` finds for it.
    """

    edges = scan_edges(function, liveness)
    return InterferenceGraph(liveness.bits.index, *edges)
