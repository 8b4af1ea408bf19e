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

import abc
from typing import Dict, Mapping, Optional, Tuple

from repro.ir.cfg import EdgeKind, FunctionCFG
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.profiling.profile_data import EdgeProfile
from repro.ir.values import PhysicalRegister
from repro.spill.model import EdgeKey, SaveRestoreSet, SpillKind, SpillLocation
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
    cost the jump-edge model charges.

    The verdict is structural, so it is memoized on the CFG snapshot
    (``cfg.jump_memo``); pass ``cfg`` to skip re-fetching the snapshot in
    per-edge loops.
    """

    src, dst = edge
    if src == ENTRY_SENTINEL or dst == EXIT_SENTINEL:
        return False
    if cfg is None:
        cfg = function.cfg()
    memo = cfg.jump_memo
    cached = memo.get(edge)
    if cached is None:
        if dst != cfg.entry_label and cfg.num_preds.get(dst, 0) == 1:
            cached = False
        elif cfg.num_succs[src] == 1:
            cached = False
        else:
            cached = cfg.edge(src, dst).kind is EdgeKind.JUMP
        memo[edge] = cached
    return cached


#: Stand-in register for the hypothetical save/restore pair a boundary cost prices.
_BOUNDARY_REGISTER = PhysicalRegister("__cost__", -1)


def _boundary_locations(
    entry_edge: EdgeKey, exit_edge: EdgeKey
) -> Tuple[SpillLocation, SpillLocation]:
    """A save on ``entry_edge`` and a restore on ``exit_edge``."""

    return (
        SpillLocation(_BOUNDARY_REGISTER, SpillKind.SAVE, entry_edge),
        SpillLocation(_BOUNDARY_REGISTER, SpillKind.RESTORE, exit_edge),
    )


class CostModel(abc.ABC):
    """Common interface of the two cost models.

    When constructed with a :class:`~repro.target.machine.MachineDescription`
    the per-location costs are weighted by the target's save/restore/jump
    instruction costs; without one, every instruction costs one unit (the
    paper's instruction-count accounting).
    """

    name: str = "abstract"

    def __init__(self, machine: Optional[MachineDescription] = None):
        self.machine = machine
        self._save_weight, self._restore_weight, self._jump_weight = cost_weights(machine)

    def location_weight(self, location: SpillLocation) -> float:
        """The target's cost weight for one save or restore instruction."""

        return self._save_weight if location.is_save() else self._restore_weight

    def cache_identity(self) -> Optional[str]:
        """Stable identity for compile-cache keys, or ``None`` for "unknown".

        The default is ``None``: a custom subclass may close over arbitrary
        state the cache cannot see, so it must *bypass* caching rather than
        risk aliasing a different model.  Subclasses whose behaviour is fully
        determined by their class and cost weights should return
        :meth:`_weighted_identity`.
        """

        return None

    def _weighted_identity(self) -> str:
        """``class|name|save|restore|jump`` with bit-exact (hex) weights.

        The concrete class is part of the identity: a subclass that tweaks
        ``location_cost`` but inherits ``cache_identity`` must never alias
        its parent's cache entries, even with identical name and weights.
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

    @abc.abstractmethod
    def location_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        location: SpillLocation,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
    ) -> float:
        """Dynamic cost of one save/restore location.

        ``jump_sharing`` maps edges to the number of callee-saved registers
        sharing a jump block there; it only applies to locations of *initial*
        save/restore sets.
        """

    def set_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        srset: SaveRestoreSet,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        """Total cost of a save/restore set.

        A model that consults the CFG may use ``cfg`` instead of re-fetching
        the snapshot.
        """

        sharing = jump_sharing if srset.initial else None
        return sum(
            self.location_cost(function, profile, location, sharing)
            for location in srset.locations
        )

    def boundary_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        entry_edge: EdgeKey,
        exit_edge: EdgeKey,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        """Cost of saving at ``entry_edge`` and restoring at ``exit_edge``.

        New sets always pay the full jump cost, hence no sharing map.  A
        model that consults the CFG may use ``cfg`` instead of re-fetching
        the snapshot.
        """

        save, restore = _boundary_locations(entry_edge, exit_edge)
        return self.location_cost(function, profile, save) + self.location_cost(
            function, profile, restore
        )


class ExecutionCountCostModel(CostModel):
    """Cost = execution count of the edge carrying the location."""

    name = "execution_count"

    def cache_identity(self) -> Optional[str]:
        return self._weighted_identity()

    def location_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        location: SpillLocation,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
    ) -> float:
        return profile.edge_count(location.edge) * self.location_weight(location)


class JumpEdgeCostModel(CostModel):
    """Execution-count cost plus the cost of jump instructions in jump blocks."""

    name = "jump_edge"

    def cache_identity(self) -> Optional[str]:
        return self._weighted_identity()

    def location_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        location: SpillLocation,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
    ) -> float:
        return self._location_cost(function, profile, location, jump_sharing, None)

    def _location_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        location: SpillLocation,
        jump_sharing: Optional[Mapping[EdgeKey, int]],
        cfg: Optional[FunctionCFG],
    ) -> float:
        count = profile.edge_count(location.edge)
        cost = count * self.location_weight(location)
        if not requires_jump_block(function, location.edge, cfg=cfg):
            return cost
        sharing = 1
        if jump_sharing is not None:
            sharing = max(1, jump_sharing.get(location.edge, 1))
        return cost + count * self._jump_weight / sharing

    # ``set_cost`` and ``boundary_cost`` fetch the CFG snapshot once instead
    # of once per location inside ``requires_jump_block``.  Only safe for this
    # exact class: a subclass overriding ``location_cost`` must still be
    # consulted per location, so it takes the generic path.

    def set_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        srset: SaveRestoreSet,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        if type(self) is not JumpEdgeCostModel:
            return super().set_cost(function, profile, srset, jump_sharing, cfg=cfg)
        if cfg is None:
            cfg = function.cfg()
        sharing = jump_sharing if srset.initial else None
        return sum(
            self._location_cost(function, profile, location, sharing, cfg)
            for location in srset.locations
        )

    def boundary_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        entry_edge: EdgeKey,
        exit_edge: EdgeKey,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        if type(self) is not JumpEdgeCostModel:
            return super().boundary_cost(function, profile, entry_edge, exit_edge, cfg=cfg)
        if cfg is None:
            cfg = function.cfg()
        save, restore = _boundary_locations(entry_edge, exit_edge)
        return self._location_cost(function, profile, save, None, cfg) + self._location_cost(
            function, profile, restore, None, cfg
        )


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
