"""Cost models for spill locations.

The paper defines two cost models:

* **Execution count cost model** — every save/restore instruction costs the
  dynamic execution count of the CFG edge it is placed on.  The hierarchical
  algorithm is optimal under this model, but the resulting code may require
  spill instructions on jump edges that cannot be materialized without an
  extra jump.
* **Jump edge cost model** — like the execution-count model, but a location
  that must be materialized in a new *jump block* on a jump edge additionally
  pays the cost of the inserted jump instruction (the edge's execution
  count).  For the initial shrink-wrapping placement this jump cost is
  divided among all callee-saved registers with spill code on that edge; new
  sets created during the PST traversal pay the full jump cost.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.bitset import bit_positions
from repro.ir.cfg import FunctionCFG, PlacementEdges
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.profiling.profile_data import EdgeProfile
from repro.spill.model import EdgeKey, SaveRestoreSet, SpillLocation
from repro.spill.sets import in_key_order, location_masks
from repro.target.machine import MachineDescription, cost_weights


def requires_jump_block(
    function: Function, edge: EdgeKey, cfg: Optional[FunctionCFG] = None
) -> bool:
    """Does placing spill code on ``edge`` require inserting a jump block?

    A location on an edge can be absorbed into an existing block when:

    * the edge is the virtual procedure entry/exit edge (code goes at the top
      of the entry block / before the return), or
    * the destination block has a single predecessor and is not the entry
      block (code goes at the top of the destination), or
    * the source block has a single successor (code goes at the bottom of the
      source, before its terminator), or
    * the edge is a fall-through edge (a new block spliced into the layout
      needs no jump instruction).

    Only a *critical jump edge* — source with several successors, destination
    with several predecessors, transfer by an explicit jump — needs a new
    block terminated by a new jump instruction, which is the extra dynamic
    cost the jump-edge model charges.  Verdicts come from the snapshot's edge
    table (``KeyError`` for an edge not in it); pass ``cfg`` to skip re-fetching it.
    """

    src, dst = edge
    if src == ENTRY_SENTINEL or dst == EXIT_SENTINEL:
        return False
    if cfg is None:
        cfg = function.cfg()
    edges = cfg.placement_edges()
    number = edges.number.get(edge)
    if number is None:
        raise KeyError(f"no edge {src} -> {dst} in function {cfg.function_name!r}")
    return bool(edges.jump_mask >> number & 1)


class CostModel:
    """The paper's cost models, priced by one code path.

    When constructed with a :class:`~repro.target.machine.MachineDescription`
    the per-location costs are weighted by the target's save/restore/jump
    instruction costs; without one, every instruction costs one unit (the
    paper's instruction-count accounting).

    The two models differ only in :attr:`charges_jumps`.  They are the only
    models: a subclass defined outside this module is rejected, because its
    :meth:`cache_identity` could not see whatever state it adds and the
    compile cache would alias it with a stock model.
    """

    name: str = "abstract"
    #: Does a location that needs a jump block also pay the jump instruction?
    charges_jumps: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__module__ != __name__:
            raise TypeError(
                f"{cls.__module__}.{cls.__qualname__}: the cost models are closed; "
                "use ExecutionCountCostModel or JumpEdgeCostModel"
            )

    def __init__(self, machine: Optional[MachineDescription] = None):
        self.machine = machine
        self._save_weight, self._restore_weight, self._jump_weight = cost_weights(machine)

    def cache_identity(self) -> str:
        """``class|name|save|restore|jump`` with bit-exact (hex) weights.

        The stable identity compile-cache keys are built from.
        """

        cls = type(self)
        return "|".join(
            (
                f"{cls.__module__}.{cls.__qualname__}",
                self.name,
                self._save_weight.hex(),
                self._restore_weight.hex(),
                self._jump_weight.hex(),
            )
        )

    def mask_cost(
        self,
        edges: PlacementEdges,
        counts: Mapping[int, float],
        saves: int,
        restores: int,
        sharing: Optional[Mapping[int, int]] = None,
    ) -> float:
        """Cost of saves on the ``saves`` edges and restores on ``restores``.

        This is the one place spill code is priced.  Edges are
        :class:`~repro.ir.cfg.PlacementEdges` numbers and ``counts[n]`` is
        edge ``n``'s execution count.  Under the jump-edge model a location
        needing a jump block also pays the jump, divided among the
        ``sharing[n]`` registers sharing it (initial sets only).  Summed in
        canonical location order — restores first, each kind in edge-key
        order — so the float does not depend on string hashing.
        """

        jumps = edges.jump_mask if self.charges_jumps else 0
        total = 0
        for weight, mask in ((self._restore_weight, restores), (self._save_weight, saves)):
            for n in in_key_order(edges, mask):
                cost = counts[n] * weight
                if jumps >> n & 1:
                    shared = max(1, sharing.get(n, 1)) if sharing else 1
                    cost += counts[n] * self._jump_weight / shared
                total += cost
        return total

    def location_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        location: SpillLocation,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        """Dynamic cost of one save/restore location of an initial set."""

        srset = SaveRestoreSet(location.register, frozenset([location]))
        return self.set_cost(function, profile, srset, jump_sharing, cfg)

    def set_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        srset: SaveRestoreSet,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        """:meth:`mask_cost` of a save/restore set; ``KeyError`` for a location on no CFG edge.

        ``jump_sharing`` maps edges to the number of callee-saved registers
        sharing a jump block there; it applies to *initial* sets only.  Pass
        ``cfg`` to skip re-fetching the snapshot.
        """

        edges = (cfg or function.cfg()).placement_edges()
        saves, restores, strays = location_masks(edges, srset.locations)
        if strays:
            raise KeyError(f"location {strays[0]} does not lie on a CFG edge")
        counts = {n: profile.edge_count(edges.keys[n]) for n in bit_positions(saves | restores)}
        sharing = None
        if jump_sharing is not None and srset.initial:
            sharing = {edges.number[e]: c for e, c in jump_sharing.items() if e in edges.number}
        return self.mask_cost(edges, counts, saves, restores, sharing)

    def boundary_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        entry_edge: EdgeKey,
        exit_edge: EdgeKey,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        """Cost of saving at ``entry_edge`` and restoring at ``exit_edge``.

        New sets always pay the full jump cost, hence no sharing.
        """

        edges = (cfg or function.cfg()).placement_edges()
        entry, exit_ = edges.number[entry_edge], edges.number[exit_edge]
        counts = {entry: profile.edge_count(entry_edge), exit_: profile.edge_count(exit_edge)}
        return self.mask_cost(edges, counts, 1 << entry, 1 << exit_)


class ExecutionCountCostModel(CostModel):
    """Cost = execution count of the edge carrying the location."""

    name = "execution_count"


class JumpEdgeCostModel(CostModel):
    """Execution-count cost plus the cost of jump instructions in jump blocks."""

    name = "jump_edge"
    charges_jumps = True


def make_cost_model(
    name: str, machine: Optional[MachineDescription] = None
) -> CostModel:
    """Factory used by the CLI and benchmark harnesses.

    ``machine`` supplies the save/restore/jump cost weights; omitted, every
    instruction costs one unit.
    """

    models = {
        ExecutionCountCostModel.name: ExecutionCountCostModel,
        JumpEdgeCostModel.name: JumpEdgeCostModel,
    }
    try:
        return models[name](machine)
    except KeyError as exc:
        raise ValueError(
            f"unknown cost model {name!r}; expected one of {sorted(models)}"
        ) from exc
