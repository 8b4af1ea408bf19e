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

from typing import Mapping, Optional, Tuple

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

    def location_weight(self, location: SpillLocation) -> float:
        """The target's cost weight for one save or restore instruction."""

        return self._save_weight if location.is_save() else self._restore_weight

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

    def location_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        location: SpillLocation,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        """Dynamic cost of one save/restore location.

        ``jump_sharing`` maps edges to the number of callee-saved registers
        sharing a jump block there; it only applies to locations of *initial*
        save/restore sets.  Pass ``cfg`` to skip re-fetching the snapshot.
        """

        count = profile.edge_count(location.edge)
        cost = count * self.location_weight(location)
        if not self.charges_jumps or not requires_jump_block(function, location.edge, cfg=cfg):
            return cost
        sharing = 1
        if jump_sharing is not None:
            sharing = max(1, jump_sharing.get(location.edge, 1))
        return cost + count * self._jump_weight / sharing

    def set_cost(
        self,
        function: Function,
        profile: EdgeProfile,
        srset: SaveRestoreSet,
        jump_sharing: Optional[Mapping[EdgeKey, int]] = None,
        cfg: Optional[FunctionCFG] = None,
    ) -> float:
        """Total cost of a save/restore set.

        Summed in the set's canonical location order, so the float result
        does not depend on how string hashes order the frozenset.
        """

        if cfg is None:
            cfg = function.cfg()
        sharing = jump_sharing if srset.initial else None
        return sum(
            self.location_cost(function, profile, location, sharing, cfg)
            for location in srset.ordered_locations()
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

        New sets always pay the full jump cost, hence no sharing map.
        """

        if cfg is None:
            cfg = function.cfg()
        save, restore = _boundary_locations(entry_edge, exit_edge)
        return self.location_cost(function, profile, save, None, cfg) + self.location_cost(
            function, profile, restore, None, cfg
        )


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
