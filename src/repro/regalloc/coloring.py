"""Graph colouring in the Chaitin/Briggs style.

The colouring works on the interference graph with *register classes*: a live
range that crosses a call may only receive a callee-saved register (a
caller-saved register would be clobbered by the callee), every other range
prefers caller-saved registers so that callee-saved registers — and their
save/restore obligation — are only used when they pay for themselves.  This
mirrors the behaviour the paper relies on: callee-saved registers are
allocated to variables that span call sites.

The algorithm is the classic simplify/select with Briggs' optimistic
colouring: nodes are pushed on a stack in order of increasing "difficulty"
(low degree first, then cheapest spill cost), popped in reverse order and
coloured if possible.  Nodes that cannot be coloured become spill candidates
and are returned to the driver, which inserts spill code and repeats.

Both passes run over register bits.  Simplify keeps a lazily-invalidated
heap of ``(degree, name rank, bit)`` entries, with degrees from
``int.bit_count()``; select keeps one mask of coloured bits per colour, so
the colours taken around a node are those whose mask meets its adjacency.
Colours are positions in the machine's allocation order.  Ties break by the
register name's rank, so the order — and every assignment — equals the
``(degree, name)``-sorted scan kept as a test oracle in
``tests/oracles/regalloc.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Tuple

from repro.analysis.bitset import bit_positions
from repro.ir.values import PhysicalRegister, Register
from repro.regalloc.interference import InterferenceGraph
from repro.regalloc.live_ranges import LiveRangeInfo
from repro.regalloc.rewriter import is_spill_temp
from repro.target.machine import MachineDescription


@dataclass
class ColoringResult:
    """Outcome of one colouring attempt."""

    assignment: Dict[Register, PhysicalRegister] = field(default_factory=dict)
    spilled: List[Register] = field(default_factory=list)
    #: The graph bits coloured with each physical register.
    colour_masks: Dict[PhysicalRegister, int] = field(default_factory=dict)

    @property
    def is_complete(self) -> bool:
        return not self.spilled


def color_graph(
    graph: InterferenceGraph,
    ranges: LiveRangeInfo,
    machine: MachineDescription,
) -> ColoringResult:
    """Colour the interference graph; uncolourable nodes become spill candidates.

    Simplify removes the ``(degree, name)``-minimal node whose degree is
    below its class size; when none exists it removes the node with the
    smallest ``(spill cost / degree, name)`` optimistically.  Heap entries
    that went stale (node removed, or its degree changed since) are
    discarded on pop; entries over their class bound are set aside and
    re-pushed.  Select gives each node a move partner's colour when one is
    free — partners tried in name order — and otherwise the first free
    register of its class.  ``graph`` and ``ranges`` must be built from one
    liveness solution, as :func:`~repro.regalloc.live_ranges.compute_live_ranges`
    and :func:`~repro.regalloc.interference.build_interference_graph` do.
    """

    if ranges.liveness.bits.index is not graph.index:
        raise ValueError("the graph and the live ranges must come from one liveness solution")
    result = ColoringResult()
    node_mask = graph.node_mask
    if not node_mask:
        return result

    facts = graph.index.facts
    adjacency = graph.adjacency
    nodes = sorted(bit_positions(node_mask), key=lambda bit: facts[bit].name)
    size = len(adjacency)
    rank = [0] * size
    for position, bit in enumerate(nodes):
        rank[bit] = position

    # Register classes as colour numbers: positions in the allocation order,
    # caller-saved first.
    order = machine.allocation_order
    caller_count = len(machine.caller_saved)
    caller = tuple(range(caller_count))
    callee = tuple(range(caller_count, len(order)))
    anywhere = tuple(range(len(order)))
    crossing = ranges.crossing_mask
    fixed = ranges.parameter_mask | ranges.return_mask
    cost = ranges.spill_cost
    allowed: List[Tuple[int, ...]] = [()] * size
    degrees = [0] * size
    for bit in nodes:
        degrees[bit] = adjacency[bit].bit_count()
        if crossing >> bit & 1:
            # A call-crossing range needs a callee-saved register; a
            # parameter or returned value must sit in a caller-saved one, so
            # a range that is both can only be spilled (its short reload
            # before the return gets a caller-saved register).
            allowed[bit] = () if fixed >> bit & 1 else callee
        elif fixed >> bit & 1:
            # Arguments arrive, and results leave, in caller-saved registers.
            allowed[bit] = caller
        else:
            # Prefer caller-saved registers (no save/restore obligation);
            # fall back to callee-saved registers under pressure.
            allowed[bit] = anywhere

    # Simplify.
    work = node_mask
    stack: List[int] = []
    spill_temps = None
    heap: List[Tuple[int, int, int]] = [(degrees[bit], rank[bit], bit) for bit in nodes]
    heapify(heap)
    while work:
        candidate = -1
        over_bound: List[Tuple[int, int, int]] = []
        while heap:
            entry = heappop(heap)
            degree, _, bit = entry
            if not work >> bit & 1 or degrees[bit] != degree:
                continue
            if degree < len(allowed[bit]):
                candidate = bit
                break
            over_bound.append(entry)
        for entry in over_bound:
            heappush(heap, entry)
        if candidate < 0:
            # Spilling one of the allocator's own reload/store temporaries
            # makes no progress (its replacement is an identical
            # one-instruction range), so they are never optimistic spill
            # candidates; pressure is relieved by splitting an original
            # live-through range instead.
            if spill_temps is None:
                spill_temps = 0
                for bit in nodes:
                    if is_spill_temp(facts[bit]):
                        spill_temps |= 1 << bit
            best = None
            for bit in bit_positions(work):
                if spill_temps >> bit & 1:
                    metric = float("inf")
                else:
                    metric = cost[bit] / max(degrees[bit], 1)
                key = (metric, rank[bit])
                if best is None or key < best:
                    best = key
                    candidate = bit
        work ^= 1 << candidate
        stack.append(candidate)
        neighbours = adjacency[candidate] & work
        while neighbours:
            low = neighbours & -neighbours
            bit = low.bit_length() - 1
            degree = degrees[bit] - 1
            degrees[bit] = degree
            heappush(heap, (degree, rank[bit], bit))
            neighbours ^= low

    # Select (Briggs' optimistic colouring).  A colour is taken when the
    # bits already coloured with it meet the node's adjacency.
    colour_masks = [0] * len(order)
    colour = [0] * size
    assigned = 0
    partners = graph.partners
    assignment = result.assignment
    while stack:
        bit = stack.pop()
        neighbours = adjacency[bit]
        candidates = allowed[bit]
        chosen = -1
        hints = partners.get(bit)
        if hints:
            # Move-related hint: reuse a partner's colour first.
            for partner in sorted(hints, key=rank.__getitem__):
                if assigned >> partner & 1:
                    hint = colour[partner]
                    if not colour_masks[hint] & neighbours and hint in candidates:
                        chosen = hint
                        break
        if chosen < 0:
            for candidate in candidates:
                if not colour_masks[candidate] & neighbours:
                    chosen = candidate
                    break
        if chosen < 0:
            result.spilled.append(facts[bit])
        else:
            colour[bit] = chosen
            colour_masks[chosen] |= 1 << bit
            assigned |= 1 << bit
            assignment[facts[bit]] = order[chosen]
    result.colour_masks = {
        order[number]: mask for number, mask in enumerate(colour_masks) if mask
    }
    return result
