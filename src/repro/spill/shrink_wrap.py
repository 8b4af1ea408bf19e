"""Chow's shrink-wrapping and the modified variant used by the hierarchical pass.

For one callee-saved register with occupancy ``USED(b)`` per block, the
placement is derived from two boolean data-flow problems:

* *availability* (forward): ``AVIN(b)`` — on every path from the procedure
  entry to the start of ``b`` the register has been occupied;
  ``AVOUT(b) = AVIN(b) or USED(b)``.
* *anticipation* (backward): ``ANTOUT(b)`` — on every path from the end of
  ``b`` to the procedure exit the register will be occupied;
  ``ANTIN(b) = USED(b) or ANTOUT(b)``.

Saves and restores are placed on CFG edges (including the virtual procedure
entry/exit edges):

* save on ``(u, v)``    iff  ``ANTIN(v) and not AVOUT(u) and not ANTIN(u)``
* restore on ``(u, v)`` iff  ``AVOUT(u) and not ANTIN(v) and not AVOUT(v)``

These are the earliest/latest points where the "must be saved" state changes,
and they yield a placement in which the saved/unsaved state of the register
is a well-defined function of the program point (verified by
:mod:`repro.spill.verifier`).

Chow's original technique adds two restrictions, both reproduced here:

* **loop avoidance** — artificial occupancy is propagated through every loop
  that contains an occupied block, so saves/restores never land inside loops;
* **no spill code on jump edges** — whenever a save or restore would fall on
  a jump edge, artificial occupancy is propagated along that edge (the source
  block for saves, the destination block for restores) and the analysis is
  repeated until no spill code sits on a jump edge.

The *modified* shrink-wrapping used as the starting point of the hierarchical
algorithm (paper, Section 4) applies neither restriction.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from repro.analysis.loops import LoopForest
from repro.analysis.session import CompilationSession, session_for
from repro.ir.cfg import FunctionCFG
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.ir.values import PhysicalRegister
from repro.spill.model import (
    CalleeSavedUsage,
    EdgeKey,
    SaveRestoreSet,
    SpillKind,
    SpillLocation,
    SpillPlacement,
)
from repro.spill.entry_exit import entry_exit_set
from repro.spill.sets import build_save_restore_sets
from repro.spill.verifier import register_errors


def _solve_aa_masks(cfg: FunctionCFG, used_mask: int) -> Tuple[int, int, int, int]:
    """Mask-based fixed point of the anticipation/availability equations.

    One bit per block (positions from :meth:`FunctionCFG.aa_maps`), whole-CFG
    Jacobi sweeps over integer masks.  Both the dict-based reference solver
    (``tests/oracles/spill.py``) and this one start from the
    same initial assignment and iterate monotone equations on a finite
    lattice, so they converge to the same (unique, least) fixed point — the
    property tests in ``tests/spill`` check bit-identity directly.

    Returns ``(ant_in, ant_out, av_in, av_out)`` masks.
    """

    position, preds_masks, succs_masks, exits_mask = cfg.aa_maps()
    n = len(preds_masks)

    # Availability: forward, intersection meet.  AVIN(entry) is pinned false
    # (position 0 is the entry block), blocks without predecessors get false.
    av_in = 0
    av_out = used_mask
    while True:
        new_in = 0
        for i in range(1, n):
            pm = preds_masks[i]
            if pm and (av_out & pm) == pm:
                new_in |= 1 << i
        new_out = new_in | used_mask
        if new_in == av_in and new_out == av_out:
            break
        av_in, av_out = new_in, new_out

    # Anticipation: backward, intersection meet.  ANTOUT(exit) pinned false.
    ant_out = 0
    ant_in = used_mask
    while True:
        new_out = 0
        for i in range(n):
            if exits_mask >> i & 1:
                continue
            sm = succs_masks[i]
            if sm and (ant_in & sm) == sm:
                new_out |= 1 << i
        new_in = new_out | used_mask
        if new_out == ant_out and new_in == ant_in:
            break
        ant_out, ant_in = new_out, new_in

    return ant_in, ant_out, av_in, av_out


def save_restore_edges(
    function: Function,
    used_blocks: FrozenSet[str],
    cfg: Optional[FunctionCFG] = None,
) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
    """Save and restore edges for one register, given its occupied blocks."""

    if not used_blocks:
        return set(), set()
    if cfg is None:
        cfg = function.cfg()
    position = cfg.aa_maps()[0]
    used_mask = 0
    for label in used_blocks:
        bit = position.get(label)
        if bit is not None:
            used_mask |= 1 << bit
    ant_in, _ant_out, _av_in, av_out = _solve_aa_masks(cfg, used_mask)
    saves: Set[EdgeKey] = set()
    restores: Set[EdgeKey] = set()

    def consider(u: Optional[str], v: Optional[str], key: EdgeKey) -> None:
        if v is not None:
            bit_v = 1 << position[v]
            ant_in_v = bool(ant_in & bit_v)
            av_out_v = bool(av_out & bit_v)
        else:
            ant_in_v = av_out_v = False
        if u is not None:
            bit_u = 1 << position[u]
            ant_in_u = bool(ant_in & bit_u)
            av_out_u = bool(av_out & bit_u)
        else:
            ant_in_u = av_out_u = False
        if ant_in_v and not av_out_u and not ant_in_u:
            saves.add(key)
        if av_out_u and not ant_in_v and not av_out_v:
            restores.add(key)

    entry_label = cfg.entry_label
    consider(None, entry_label, (ENTRY_SENTINEL, entry_label))
    for edge in cfg.edges:
        consider(edge.src, edge.dst, edge.key)
    exit_label = cfg.exit_label
    consider(exit_label, None, (exit_label, EXIT_SENTINEL))
    return saves, restores


def _expand_through_loops(
    function: Function, used_blocks: FrozenSet[str], loops: LoopForest
) -> FrozenSet[str]:
    """Mark every block of a loop occupied as soon as any of its blocks is.

    This reproduces Chow's artificial data flow through loop bodies, which
    keeps saves and restores out of loops.  Iterates to a fixed point so that
    nested and sibling loops compose.
    """

    expanded = set(used_blocks)
    changed = True
    while changed:
        changed = False
        for loop in loops.loops:
            if expanded & loop.body and not loop.body <= expanded:
                expanded |= loop.body
                changed = True
    return frozenset(expanded)


def shrink_wrap_edges(
    function: Function,
    used_blocks: FrozenSet[str],
    allow_jump_edges: bool = True,
    avoid_loops: bool = False,
    max_iterations: Optional[int] = None,
    session: Optional[CompilationSession] = None,
) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
    """Shrink-wrapping save/restore edges for one register.

    ``allow_jump_edges=True, avoid_loops=False`` gives the modified variant
    used as the hierarchical algorithm's starting point;
    ``allow_jump_edges=False, avoid_loops=True`` gives Chow's original
    technique.  ``session`` lets callers placing many registers share the
    CFG snapshot, the loop forest (only read when ``avoid_loops``) and the
    data-flow solutions, which depend only on the occupied blocks — and
    registers and the two variants often agree on those.
    """

    if not used_blocks:
        return set(), set()
    session = session_for(function, session)
    cfg = session.cfg
    solutions = session.edge_solutions

    def solve(occupied: FrozenSet[str]) -> Tuple[Set[EdgeKey], Set[EdgeKey]]:
        if occupied not in solutions:
            solutions[occupied] = save_restore_edges(function, occupied, cfg=cfg)
        saves, restores = solutions[occupied]
        return set(saves), set(restores)

    occupied = frozenset(used_blocks)
    if avoid_loops:
        occupied = _expand_through_loops(function, occupied, session.loop_forest)

    limit = max_iterations if max_iterations is not None else len(function) + 2
    for _ in range(limit):
        saves, restores = solve(occupied)
        if allow_jump_edges:
            return saves, restores
        # Chow forbids *inserting new blocks* on jump edges; a location on a
        # jump edge whose destination has a single predecessor (or whose
        # source has a single successor) can be absorbed into the existing
        # block and is therefore not an offender.
        from repro.spill.cost_models import requires_jump_block

        offenders_src = {
            key[0] for key in saves if requires_jump_block(function, key, cfg=cfg)
        }
        offenders_dst = {
            key[1] for key in restores if requires_jump_block(function, key, cfg=cfg)
        }
        if not offenders_src and not offenders_dst:
            return saves, restores
        # Propagate artificial occupancy along the offending jump edges:
        # the source block for saves, the destination block for restores.
        occupied = frozenset(occupied | offenders_src | offenders_dst)
        if avoid_loops:
            occupied = _expand_through_loops(function, occupied, session.loop_forest)
    # The expansion is monotone and bounded by the number of blocks, so the
    # loop above always terminates; this return is the final fixed point.
    return solve(occupied)


def _grouped_sets(
    session: CompilationSession,
    register: PhysicalRegister,
    saves: Set[EdgeKey],
    restores: Set[EdgeKey],
) -> List[SaveRestoreSet]:
    """One register's initial save/restore sets, grouped once per edge content.

    Chow's technique and the modified variant agree on most registers'
    edges; the session memo hands the second the first's sets (the same
    immutable objects), so their grouping and soundness check are shared.
    """

    key = (register, frozenset(saves), frozenset(restores))
    sets = session.set_groups.get(key)
    if sets is None:
        locations = [SpillLocation(register, SpillKind.SAVE, edge) for edge in sorted(saves)]
        locations += [
            SpillLocation(register, SpillKind.RESTORE, edge) for edge in sorted(restores)
        ]
        sets = build_save_restore_sets(
            session.function, register, locations, initial=True, cfg=session.cfg
        )
        session.set_groups[key] = sets
    return list(sets)


def place_shrink_wrap(
    function: Function,
    usage: CalleeSavedUsage,
    allow_jump_edges: bool = False,
    avoid_loops: bool = True,
    technique_name: Optional[str] = None,
    cfg: Optional[FunctionCFG] = None,
    session: Optional[CompilationSession] = None,
) -> SpillPlacement:
    """Shrink-wrapping placement for every used callee-saved register.

    The defaults reproduce Chow's original technique; pass
    ``allow_jump_edges=True, avoid_loops=False`` for the modified variant.
    ``session`` (or else ``cfg``) shares the function's analyses and
    per-register memos with the other techniques of the same compile.

    The dataflow-derived locations are checked per register against the
    callee-saved convention; a register whose candidate sets fail the check
    (possible only on CFG shapes outside the technique's structural
    assumptions, e.g. irreducible loops) falls back to the always-valid
    entry/exit pair and is recorded in
    :attr:`~repro.spill.model.SpillPlacement.fallback_registers`.
    """

    if technique_name is None:
        technique_name = "shrink_wrap" if not allow_jump_edges else "modified_shrink_wrap"
    session = session_for(function, session, cfg)
    placement = SpillPlacement(function.name, technique_name)
    for register in usage.used_registers():
        occupied = usage.blocks_for(register)
        saves, restores = shrink_wrap_edges(
            function,
            occupied,
            allow_jump_edges=allow_jump_edges,
            avoid_loops=avoid_loops,
            session=session,
        )
        sets = _grouped_sets(session, register, saves, restores)
        if register_errors(session, register, occupied, sets):
            sets = [entry_exit_set(function, register, session)]
            placement.fallback_registers.append(register)
        for srset in sets:
            placement.add_set(srset)
    return placement
