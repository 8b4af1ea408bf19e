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

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.analysis.bitset import bit_positions
from repro.analysis.pst import ProgramStructureTree, Region
from repro.analysis.session import CompilationSession, session_for
from repro.ir.cfg import FunctionCFG, PlacementEdges
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister
from repro.profiling.profile_data import EdgeProfile
from repro.spill.cost_models import CostModel, make_cost_model
from repro.spill.model import CalleeSavedUsage, SpillPlacement
from repro.spill.sets import RegisterSets, edge_set
from repro.spill.shrink_wrap import shrink_wrap_sets
from repro.spill.verifier import convention_errors
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
    """Placement plus the decision trace and the structures it was built from.

    ``initial_placement`` (the modified shrink-wrapping start) is built on first use.
    """

    placement: SpillPlacement
    pst: ProgramStructureTree
    decisions: List[RegionDecision] = field(default_factory=list)
    initial_sets: Dict[PhysicalRegister, RegisterSets] = field(default_factory=dict, repr=False)
    initial_fallbacks: List[PhysicalRegister] = field(default_factory=list)

    @cached_property
    def initial_placement(self) -> SpillPlacement:
        initial = SpillPlacement(self.placement.function_name, "modified_shrink_wrap")
        initial.fallback_registers = list(self.initial_fallbacks)
        for sets in self.initial_sets.values():
            for srset in sets.sets():
                initial.add_set(srset)
        return initial

    def decisions_for_register(self, register: PhysicalRegister) -> List[RegionDecision]:
        return [d for d in self.decisions if d.register == register]


def jump_sharing(edges: PlacementEdges, register_pairs: Iterable[Iterable[Tuple]]) -> Counter:
    """Per jump edge, how many registers' ``(saves, restores)`` set pairs have a location there.

    The jump-edge model divides a jump's cost among them, for initial sets only (Section 4).
    """

    masks = [reduce(or_, (s | r for s, r in pairs)) for pairs in register_pairs]
    return Counter(n for mask in masks for n in bit_positions(mask & edges.jump_mask))


class _Entry(NamedTuple):
    """One set in a register's working list, priced once when it enters."""

    #: The initial sets it is ``index`` of; ``None`` for a hoisted set.
    origin: Optional[RegisterSets]
    index: int
    saves: int
    restores: int
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
    edges = session.cfg.placement_edges()
    keys = edges.keys
    counts = [profile.edge_count(key) for key in keys]
    # Steps 1-3: PST, modified shrink-wrapping locations, initial sets.
    pst = session.pst(maximal_regions)
    by_register, fallbacks = shrink_wrap_sets(
        function, usage, allow_jump_edges=True, avoid_loops=False, session=session
    )
    initial_sets = {register: sets for register, sets in by_register.items() if sets.pairs}
    sharing = jump_sharing(edges, [sets.pairs for sets in initial_sets.values()])

    def initial_entry(sets: RegisterSets, index: int) -> _Entry:
        saves, restores = sets.pairs[index]
        cost = cost_model.mask_cost(edges, counts, saves, restores, sharing)
        labels = frozenset(label for n in bit_positions(saves | restores) for label in keys[n])
        return _Entry(sets, index, saves, restores, cost, labels)

    current: Dict[PhysicalRegister, List[_Entry]] = {
        register: [initial_entry(sets, index) for index in range(len(sets.pairs))]
        for register, sets in initial_sets.items()
    }
    registers = usage.used_registers()
    decisions: List[RegionDecision] = []

    # Steps 4-6: topological traversal of the PST.
    for region in pst.topological_order():
        entry_edge, exit_edge = edges.number[region.entry_edge], edges.number[region.exit_edge]
        boundary_cost = cost_model.mask_cost(edges, counts, 1 << entry_edge, 1 << exit_edge)
        # One new set whose save and restore sit at the region boundaries;
        # its cost is the boundary cost.
        hoisted = _Entry(
            None, 0, 1 << entry_edge, 1 << exit_edge, boundary_cost,
            frozenset(region.entry_edge + region.exit_edge),
        )
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
            if replaced:
                current[register] = remaining + [hoisted]

    # Soundness net: the PST traversal is correct whenever the SESE regions
    # really are single-entry/single-exit, which the cycle-equivalence
    # machinery guarantees on well-formed flowgraphs.  On shapes outside
    # those assumptions (degenerate or irreducible graphs) a hoisted set
    # could still violate the convention — such a register reverts to its
    # initial sets, which place_shrink_wrap already checked (or replaced by
    # the entry/exit pair).
    placement = SpillPlacement(function.name, f"hierarchical[{cost_model.name}]")
    placement.fallback_registers = list(fallbacks)
    for register, entries in current.items():
        occupied = edges.block_mask(usage.blocks_for(register))
        pairs = [(entry.saves, entry.restores) for entry in entries]
        if convention_errors(session, register, occupied, pairs):
            sets = initial_sets[register].sets()
            if register not in placement.fallback_registers:
                placement.fallback_registers.append(register)
        else:
            masks = session.set_masks
            sets = [
                edge_set(edges, masks, register, entry.saves, entry.restores, initial=False)
                if entry.origin is None
                else entry.origin.set_at(entry.index)
                for entry in entries
            ]
        for srset in sets:
            placement.add_set(srset)
    return HierarchicalResult(
        placement=placement,
        pst=pst,
        decisions=decisions,
        initial_sets=initial_sets,
        initial_fallbacks=fallbacks,
    )
