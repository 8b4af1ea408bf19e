"""Interference graphs over virtual registers.

Two virtual registers interfere when one is defined at a point where the
other is live (the classic Chaitin construction); move instructions get the
usual exemption so that copy-related registers may share a colour.

The graph is dense-indexed, as Briggs, Cooper & Torczon keep it: every node
is a bit of the round's :class:`~repro.analysis.bitset.RegisterIndex`, its
adjacency is one integer mask, and move partners are bit lists.  The edges
come from the allocation round's single instruction scan
(:func:`repro.regalloc.live_ranges.scan_edges`).  The set-based
construction this replaced is kept as a test oracle in
``tests/oracles/regalloc.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.bitset import RegisterIndex
from repro.analysis.liveness import LivenessInfo
from repro.ir.function import Function
from repro.regalloc.live_ranges import scan_edges


class InterferenceGraph:
    """An undirected graph over register bits, one adjacency mask per bit.

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


def build_interference_graph(
    function: Function, liveness: LivenessInfo
) -> InterferenceGraph:
    """Chaitin-style interference graph over the virtual registers of ``function``.

    ``liveness`` must describe ``function`` as it is now: the edges are the
    ones :func:`~repro.regalloc.live_ranges.scan_edges` finds for it.
    """

    edges = scan_edges(function, liveness)
    return InterferenceGraph(liveness.index, *edges)
