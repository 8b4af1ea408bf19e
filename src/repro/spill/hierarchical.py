"""The hierarchical spill code placement algorithm (paper, Section 4).

Outline (HIERARCHICAL-SPILL-CODE-PLACEMENT):

1. compute the program structure tree of maximal SESE regions;
2. compute the modified shrink-wrapping save/restore locations (jump edges
   allowed, no artificial loop flow);
3. group those locations into the initial save/restore sets;
4. traverse the PST regions in topological order (children before parents);
5. for each callee-saved register, whenever the cost of saving/restoring at
   the region boundaries is less than or equal to the total cost of the
   save/restore sets contained in the region, replace the contained sets by a
   new set at the boundaries and propagate the change upward;
6. the final comparison at the PST root decides between the accumulated
   placement and plain procedure entry/exit placement.

With the execution-count cost model the result is an optimal (minimum
dynamic execution count) placement; the jump-edge cost model additionally
accounts for jump instructions needed to materialize spill code on critical
jump edges and is the model evaluated in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

from repro.analysis.pst import ProgramStructureTree, Region
from repro.analysis.session import CompilationSession, session_for
from repro.ir.cfg import FunctionCFG
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister
from repro.profiling.profile_data import EdgeProfile
from repro.spill.cost_models import CostModel, make_cost_model, requires_jump_block
from repro.spill.model import (
    CalleeSavedUsage,
    EdgeKey,
    SaveRestoreSet,
    SpillKind,
    SpillLocation,
    SpillPlacement,
)
from repro.spill.shrink_wrap import place_shrink_wrap
from repro.spill.verifier import register_errors
from repro.target.machine import MachineDescription


@dataclass(frozen=True)
class RegionDecision:
    """One comparison made during the PST traversal (used by tests/examples)."""

    region_id: int
    register: PhysicalRegister
    contained_sets: int
    contained_cost: float
    boundary_cost: float
    replaced: bool

    def __str__(self) -> str:
        action = "replaced" if self.replaced else "kept"
        return (
            f"region {self.region_id} / {self.register.name}: contained "
            f"{self.contained_sets} set(s) cost {self.contained_cost:g} vs boundary "
            f"{self.boundary_cost:g} -> {action}"
        )


@dataclass
class HierarchicalResult:
    """Placement plus the decision trace and the structures it was built from."""

    placement: SpillPlacement
    initial_placement: SpillPlacement
    pst: ProgramStructureTree
    decisions: List[RegionDecision] = field(default_factory=list)

    def decisions_for_register(self, register: PhysicalRegister) -> List[RegionDecision]:
        return [d for d in self.decisions if d.register == register]


def compute_jump_sharing(
    function: Function,
    placement: SpillPlacement,
    cfg: Optional[FunctionCFG] = None,
) -> Dict[EdgeKey, int]:
    """How many registers share a jump block on each edge of the initial placement.

    The jump-edge cost model divides the cost of a jump instruction among all
    callee-saved registers that have spill locations on the corresponding
    jump edge (paper, Section 4) — but only for the initial, shrink-wrapping
    derived sets.
    """

    sharing: Dict[EdgeKey, int] = {}
    if cfg is None:
        cfg = function.cfg()
    for edge, locations in placement.edges_with_locations().items():
        if requires_jump_block(function, edge, cfg=cfg):
            sharing[edge] = len({l.register for l in locations})
    return sharing


class _Entry(NamedTuple):
    """One set in a register's working list, priced once when it enters."""

    srset: SaveRestoreSet
    cost: float
    #: The block labels at both ends of the set's location edges.
    labels: FrozenSet[str]


def _partition(
    region: Region, entries: List[_Entry]
) -> Tuple[List[_Entry], List[_Entry]]:
    """Split ``entries`` into the sets fully contained in ``region`` and the rest.

    The PST root contains every set, including sets with locations already at
    the procedure entry/exit (the final comparison of the algorithm considers
    all spill code in the procedure).
    """

    if region.is_root:
        return list(entries), []
    blocks = region.blocks
    contained: List[_Entry] = []
    remaining: List[_Entry] = []
    for entry in entries:
        (contained if entry.labels <= blocks else remaining).append(entry)
    return contained, remaining


def place_hierarchical(
    function: Function,
    usage: CalleeSavedUsage,
    profile: EdgeProfile,
    cost_model: Union[CostModel, str] = "jump_edge",
    maximal_regions: bool = True,
    machine: Optional["MachineDescription"] = None,
    cfg: Optional[FunctionCFG] = None,
    session: Optional[CompilationSession] = None,
) -> HierarchicalResult:
    """Run the hierarchical spill code placement algorithm.

    Parameters
    ----------
    cost_model:
        Either a :class:`~repro.spill.cost_models.CostModel` instance or one
        of ``"execution_count"`` / ``"jump_edge"`` (the paper evaluates the
        jump-edge model).
    maximal_regions:
        Build the PST from maximal SESE regions (the paper's formulation).
        ``False`` uses canonical regions and exists for the ablation study.
    machine:
        Target machine supplying the save/restore/jump cost weights when
        ``cost_model`` is given by name (ignored for instances, which carry
        their own machine).  Omitted, every instruction costs one unit.
    session:
        The function's :class:`~repro.analysis.session.CompilationSession`
        (or else a snapshot ``cfg`` to seed one): the PST, the CFG and the
        per-register memos are shared with the compile's other techniques.

    The result is checked per register against the callee-saved convention;
    a register whose hoisted sets fail the check (possible only outside the
    paper's structural assumptions, e.g. on irreducible flowgraphs) reverts
    to its initial sets — the modified shrink-wrapping sets, which passed
    the same check, or their entry/exit fallback — and is recorded in
    :attr:`~repro.spill.model.SpillPlacement.fallback_registers`.
    """

    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, machine)

    session = session_for(function, session, cfg)
    cfg = session.cfg
    # Steps 1-3: PST, modified shrink-wrapping locations, initial sets.
    pst = session.pst(maximal_regions)
    initial = place_shrink_wrap(
        function,
        usage,
        allow_jump_edges=True,
        avoid_loops=False,
        technique_name="modified_shrink_wrap",
        session=session,
    )
    jump_sharing = compute_jump_sharing(function, initial, cfg=cfg)

    def initial_entry(srset: SaveRestoreSet) -> _Entry:
        cost = cost_model.set_cost(function, profile, srset, jump_sharing, cfg=cfg)
        labels = frozenset(label for location in srset.locations for label in location.edge)
        return _Entry(srset, cost, labels)

    current: Dict[PhysicalRegister, List[_Entry]] = {
        register: [initial_entry(srset) for srset in initial.sets_for(register)]
        for register in initial.registers()
    }
    registers = usage.used_registers()
    decisions: List[RegionDecision] = []

    # Steps 4-6: topological traversal of the PST.
    for region in pst.topological_order():
        boundary_cost = cost_model.boundary_cost(
            function, profile, region.entry_edge, region.exit_edge, cfg=cfg
        )
        hoisted_labels = frozenset(region.entry_edge + region.exit_edge)
        for register in registers:
            entries = current.get(register)
            if not entries:
                continue
            contained, remaining = _partition(region, entries)
            if not contained:
                continue
            contained_cost = sum(entry.cost for entry in contained)
            replaced = boundary_cost <= contained_cost
            decisions.append(
                RegionDecision(
                    region_id=region.identifier,
                    register=register,
                    contained_sets=len(contained),
                    contained_cost=contained_cost,
                    boundary_cost=boundary_cost,
                    replaced=replaced,
                )
            )
            if not replaced:
                continue
            # Substitute one new set whose save and restore sit at the region
            # boundaries; its cost is the boundary cost just compared.
            new_set = SaveRestoreSet.from_locations(
                register,
                [
                    SpillLocation(register, SpillKind.SAVE, region.entry_edge),
                    SpillLocation(register, SpillKind.RESTORE, region.exit_edge),
                ],
                initial=False,
            )
            current[register] = remaining + [_Entry(new_set, boundary_cost, hoisted_labels)]

    # Soundness net: the PST traversal is correct whenever the SESE regions
    # really are single-entry/single-exit, which the cycle-equivalence
    # machinery guarantees on well-formed flowgraphs.  On shapes outside
    # those assumptions (degenerate or irreducible graphs) a hoisted set
    # could still violate the convention — such a register reverts to its
    # initial sets, which place_shrink_wrap already checked (or replaced by
    # the entry/exit pair).
    placement = SpillPlacement(function.name, f"hierarchical[{cost_model.name}]")
    placement.fallback_registers = list(initial.fallback_registers)
    for register, entries in current.items():
        sets = [entry.srset for entry in entries]
        if register_errors(session, register, usage.blocks_for(register), sets):
            sets = initial.sets_for(register)
            if register not in placement.fallback_registers:
                placement.fallback_registers.append(register)
        for srset in sets:
            placement.add_set(srset)
    return HierarchicalResult(
        placement=placement,
        initial_placement=initial,
        pst=pst,
        decisions=decisions,
    )
