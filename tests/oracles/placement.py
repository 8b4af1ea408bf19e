"""The exact optimum of callee-saved placement, by minimum cut (test oracle).

The cheapest valid placement of one callee-saved register, under a cost
model whose location cost depends on the edge alone, is an s–t minimum cut.
Colour every block *saved* (the original value sits in the save slot) or
*unsaved*:

* the virtual ``__entry__`` and ``__exit__`` nodes are unsaved, and every
  block the register is occupied in is saved;
* a save goes on each unsaved→saved edge and a restore on each
  saved→unsaved edge.

With the unsaved side as the source side, arc ``u→v`` carries the save cost
of edge ``u→v`` and arc ``v→u`` its restore cost, so a cut's capacity is
exactly the placement's dynamic cost.  :func:`min_cuts` prices every arc
once per function with the model's own ``location_cost`` — under the
jump-edge model each arc pays its own jump, unshared — and solves each
register with Edmonds–Karp over exact integers: every float is a dyadic
rational, so scaling by the largest denominator leaves no rounding crumb in
any residual.  The cut's placement is returned so it can be checked against
the convention.  Slow and simple on purpose: it is the reference the
hierarchical algorithm's optimality claim is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.ir.values import PhysicalRegister
from repro.profiling.profile_data import EdgeProfile
from repro.spill.cost_models import CostModel
from repro.spill.model import CalleeSavedUsage, SaveRestoreSet, SpillKind, SpillLocation

#: The super-sink every occupied block is tied to.
_SINK = "__saved__"

Capacity = Dict[str, Dict[str, int]]


@dataclass(frozen=True)
class MinCut:
    """One register's optimal placement under a cost model."""

    register: PhysicalRegister
    cost: float
    placement: SaveRestoreSet


def _augmenting_path(residual: Capacity, source: str, sink: str) -> Dict[str, str]:
    """BFS parents of a shortest residual path (``sink`` absent: none left)."""

    parent: Dict[str, str] = {source: source}
    queue = deque([source])
    while queue and sink not in parent:
        node = queue.popleft()
        for succ, capacity in residual[node].items():
            if capacity > 0 and succ not in parent:
                parent[succ] = node
                queue.append(succ)
    return parent


def _source_side(residual: Capacity, source: str, sink: str) -> Set[str]:
    """Edmonds–Karp to a maximum flow, in place; the nodes still reachable from ``source``.

    ``residual`` must hold every reverse arc (capacity 0 if none).
    """

    while True:
        parent = _augmenting_path(residual, source, sink)
        if sink not in parent:
            return set(parent)
        path: List[Tuple[str, str]] = []
        node = sink
        while node != source:
            path.append((parent[node], node))
            node = parent[node]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push


def min_cuts(
    function: Function,
    profile: EdgeProfile,
    usage: CalleeSavedUsage,
    cost_model: CostModel,
) -> Dict[PhysicalRegister, MinCut]:
    """The cheapest valid placement of every used register under ``cost_model``.

    Exact for any model whose location cost depends on the edge alone: the
    execution-count model, and the jump-edge model with each jump unshared.
    """

    cfg = function.cfg()
    edges = sorted(cfg.placement_edges().keys)
    registers = usage.used_registers()
    if not registers:
        return {}
    # A float is n / 2**k exactly; scaling every price by the largest 2**k
    # turns them all into exact integers.
    ratios = {
        (kind, edge): cost_model.location_cost(
            function, profile, SpillLocation(registers[0], kind, edge), cfg=cfg
        ).as_integer_ratio()
        for edge in edges
        for kind in (SpillKind.SAVE, SpillKind.RESTORE)
    }
    scale = max(denominator for _numerator, denominator in ratios.values())
    units = {key: n * (scale // d) for key, (n, d) in ratios.items()}

    nodes = set(cfg.labels) | {ENTRY_SENTINEL, EXIT_SENTINEL, _SINK}
    capacity: Capacity = {node: {} for node in nodes}
    for u, v in edges:
        capacity[u][v] = capacity[u].get(v, 0) + units[SpillKind.SAVE, (u, v)]
        capacity[v][u] = capacity[v].get(u, 0) + units[SpillKind.RESTORE, (u, v)]
    # Larger than any finite cut: the colouring constraints are never cut.
    unbounded = sum(units.values()) + 1
    capacity[ENTRY_SENTINEL][EXIT_SENTINEL] = unbounded
    capacity[EXIT_SENTINEL][ENTRY_SENTINEL] = unbounded

    cuts: Dict[PhysicalRegister, MinCut] = {}
    for register in registers:
        residual = {node: dict(arcs) for node, arcs in capacity.items()}
        for label in usage.blocks_for(register):
            residual[label][_SINK] = unbounded
            residual[_SINK][label] = 0
        unsaved = _source_side(residual, ENTRY_SENTINEL, _SINK)
        locations: List[SpillLocation] = []
        cost = 0
        for u, v in edges:
            if u in unsaved and v not in unsaved:
                kind = SpillKind.SAVE
            elif u not in unsaved and v in unsaved:
                kind = SpillKind.RESTORE
            else:
                continue
            locations.append(SpillLocation(register, kind, (u, v)))
            cost += units[kind, (u, v)]
        cuts[register] = MinCut(
            register=register,
            cost=float(Fraction(cost, scale)),
            placement=SaveRestoreSet.from_locations(register, locations, initial=False),
        )
    return cuts
