"""The exact optimum of callee-saved placement, by minimum cut (test oracle).

Under the execution-count cost model, the cheapest valid placement of one
callee-saved register is an s–t minimum cut.  Colour every block *saved*
(the original value sits in the save slot) or *unsaved*:

* the virtual ``__entry__`` and ``__exit__`` nodes are unsaved, and every
  block the register is occupied in is saved;
* a save goes on each unsaved→saved edge and a restore on each
  saved→unsaved edge.

With the unsaved side as the source side, arc ``u→v`` carries the save cost
of edge ``u→v`` and arc ``v→u`` its restore cost, so a cut's capacity is
exactly the placement's dynamic cost.  :func:`min_cut_placement` solves it
with Edmonds–Karp over exact rationals (every float is a dyadic rational,
so no residual is ever left at a rounding crumb), prices each arc with the
model's own ``location_cost``, and returns the cut's placement so it can be
checked against the convention.  Slow and simple on purpose: it is the
reference the hierarchical algorithm's optimality claim is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.ir.values import PhysicalRegister
from repro.profiling.profile_data import EdgeProfile
from repro.spill.cost_models import CostModel
from repro.spill.model import EdgeKey, SaveRestoreSet, SpillKind, SpillLocation

#: The super-sink every occupied block is tied to.
_SINK = "__saved__"


@dataclass(frozen=True)
class MinCut:
    """One register's optimal placement under a cost model."""

    register: PhysicalRegister
    cost: float
    placement: SaveRestoreSet


def _augmenting_path(
    residual: Dict[str, Dict[str, Fraction]], source: str, sink: str
) -> Dict[str, str]:
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


def _source_side(
    capacity: Dict[str, Dict[str, Fraction]], source: str, sink: str
) -> Set[str]:
    """Edmonds–Karp to a maximum flow; the nodes still reachable from ``source``."""

    residual = {node: dict(arcs) for node, arcs in capacity.items()}
    for node, arcs in capacity.items():
        for succ in arcs:
            residual[succ].setdefault(node, Fraction(0))
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


def min_cut_placement(
    function: Function,
    profile: EdgeProfile,
    register: PhysicalRegister,
    occupied: FrozenSet[str],
    cost_model: CostModel,
) -> MinCut:
    """The cheapest valid placement of ``register`` under ``cost_model``.

    Exact for the execution-count model, whose location cost depends on the
    edge alone; ``occupied`` must be non-empty.
    """

    cfg = function.cfg()
    edges: List[EdgeKey] = sorted(cfg.placement_edges().keys)

    def price(kind: SpillKind, edge: EdgeKey) -> Fraction:
        location = SpillLocation(register, kind, edge)
        return Fraction(cost_model.location_cost(function, profile, location, cfg=cfg))

    nodes = set(cfg.labels) | {ENTRY_SENTINEL, EXIT_SENTINEL, _SINK}
    capacity: Dict[str, Dict[str, Fraction]] = {node: {} for node in nodes}
    for u, v in edges:
        forward = capacity[u].get(v, Fraction(0))
        capacity[u][v] = forward + price(SpillKind.SAVE, (u, v))
        backward = capacity[v].get(u, Fraction(0))
        capacity[v][u] = backward + price(SpillKind.RESTORE, (u, v))
    # Larger than any finite cut: the colouring constraints are never cut.
    unbounded = sum(c for arcs in capacity.values() for c in arcs.values()) + 1
    capacity[ENTRY_SENTINEL][EXIT_SENTINEL] = unbounded
    capacity[EXIT_SENTINEL][ENTRY_SENTINEL] = unbounded
    for label in occupied:
        capacity[label][_SINK] = unbounded

    unsaved = _source_side(capacity, ENTRY_SENTINEL, _SINK)
    locations: List[SpillLocation] = []
    cost = Fraction(0)
    for u, v in edges:
        if u in unsaved and v not in unsaved:
            locations.append(SpillLocation(register, SpillKind.SAVE, (u, v)))
            cost += price(SpillKind.SAVE, (u, v))
        elif u not in unsaved and v in unsaved:
            locations.append(SpillLocation(register, SpillKind.RESTORE, (u, v)))
            cost += price(SpillKind.RESTORE, (u, v))
    return MinCut(
        register=register,
        cost=float(cost),
        placement=SaveRestoreSet.from_locations(register, locations, initial=False),
    )
