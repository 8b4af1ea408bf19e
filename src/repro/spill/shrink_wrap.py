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

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.bitset import bit_positions
from repro.analysis.session import CompilationSession, session_for
from repro.ir.cfg import FunctionCFG, PlacementEdges
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister
from repro.spill.model import CalleeSavedUsage, SpillPlacement
from repro.spill.sets import RegisterSets, group_edges
from repro.spill.verifier import convention_errors


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


def _solve(cfg: FunctionCFG, edges: PlacementEdges, used_mask: int) -> Tuple[int, int]:
    """Save and restore edge masks for the blocks of ``used_mask``."""

    ant_in, _ant_out, _av_in, av_out = _solve_aa_masks(cfg, used_mask)
    # save on (u, v) iff ANTIN(v) and not AVOUT(u) and not ANTIN(u);
    # restore on (u, v) iff AVOUT(u) and not ANTIN(v) and not AVOUT(v).
    # The virtual entry/exit ends (position -1) are false for all four.
    dst = edges.dst
    saved_or_ant = ant_in | av_out
    saves = 1 if ant_in >> dst[0] & 1 else 0
    restores = 0
    for block, out in enumerate(edges.out):
        block_bit = 1 << block
        save_from = not saved_or_ant & block_bit
        restore_from = bool(av_out & block_bit)
        if not save_from and not restore_from:
            continue
        for n in out:
            target = dst[n]
            if target < 0:
                if restore_from:
                    restores |= 1 << n
                continue
            target_bit = 1 << target
            if save_from and ant_in & target_bit:
                saves |= 1 << n
            elif restore_from and not saved_or_ant & target_bit:
                restores |= 1 << n
    return saves, restores


def save_restore_edges(
    function: Function,
    used_blocks: FrozenSet[str],
    cfg: Optional[FunctionCFG] = None,
) -> Tuple[int, int]:
    """One register's save and restore edge masks, given its occupied blocks."""

    if not used_blocks:
        return 0, 0
    if cfg is None:
        cfg = function.cfg()
    edges = cfg.placement_edges()
    return _solve(cfg, edges, edges.block_mask(used_blocks))


def _expand_through_loops(occupied: int, loop_masks: List[int]) -> int:
    """Mark every block of a loop occupied as soon as any of its blocks is.

    This reproduces Chow's artificial data flow through loop bodies, which
    keeps saves and restores out of loops.  Iterates to a fixed point so that
    nested and sibling loops compose.
    """

    changed = True
    while changed:
        changed = False
        for body in loop_masks:
            if occupied & body and body & ~occupied:
                occupied |= body
                changed = True
    return occupied


def shrink_wrap_edges(
    function: Function,
    used_blocks: FrozenSet[str],
    allow_jump_edges: bool = True,
    avoid_loops: bool = False,
    max_iterations: Optional[int] = None,
    session: Optional[CompilationSession] = None,
) -> Tuple[int, int]:
    """Shrink-wrapping save and restore edge masks for one register.

    ``allow_jump_edges=True, avoid_loops=False`` gives the modified variant
    used as the hierarchical algorithm's starting point;
    ``allow_jump_edges=False, avoid_loops=True`` gives Chow's original
    technique.  ``session`` lets callers placing many registers share the
    CFG snapshot, the loop forest (only read when ``avoid_loops``) and the
    data-flow solutions, which depend only on the occupied blocks — and
    registers and the two variants often agree on those.
    """

    if not used_blocks:
        return 0, 0
    session = session_for(function, session)
    cfg = session.cfg
    edges = cfg.placement_edges()
    solutions = session.edge_solutions

    def solve(occupied: int) -> Tuple[int, int]:
        solution = solutions.get(occupied)
        if solution is None:
            solution = solutions[occupied] = _solve(cfg, edges, occupied)
        return solution

    occupied = edges.block_mask(used_blocks)
    if avoid_loops:
        loop_masks = [edges.block_mask(loop.body) for loop in session.loop_forest.loops]
        occupied = _expand_through_loops(occupied, loop_masks)

    keys, position, jump_mask = edges.keys, edges.position, edges.jump_mask
    limit = max_iterations if max_iterations is not None else len(function) + 2
    for _ in range(limit):
        saves, restores = solve(occupied)
        if allow_jump_edges:
            return saves, restores
        # Chow forbids *inserting new blocks* on jump edges; a location on a
        # jump edge whose destination has a single predecessor (or whose
        # source has a single successor) can be absorbed into the existing
        # block and is therefore not an offender.
        offenders = [keys[n][0] for n in bit_positions(saves & jump_mask)]
        offenders += [keys[n][1] for n in bit_positions(restores & jump_mask)]
        if not offenders:
            return saves, restores
        # Propagate artificial occupancy along the offending jump edges:
        # the source block for saves, the destination block for restores.
        for label in offenders:
            occupied |= 1 << position[label]
        if avoid_loops:
            occupied = _expand_through_loops(occupied, loop_masks)
    # The expansion is monotone and bounded by the number of blocks, so the
    # loop above always terminates; this return is the final fixed point.
    return solve(occupied)


def shrink_wrap_sets(
    function: Function,
    usage: CalleeSavedUsage,
    allow_jump_edges: bool,
    avoid_loops: bool,
    session: CompilationSession,
) -> Tuple[Dict[PhysicalRegister, RegisterSets], List[PhysicalRegister]]:
    """Each used register's checked sets (see :func:`place_shrink_wrap`), and the fallbacks."""

    edges = session.cfg.placement_edges()
    by_register: Dict[PhysicalRegister, RegisterSets] = {}
    fallbacks: List[PhysicalRegister] = []
    for register in usage.used_registers():
        occupied = usage.blocks_for(register)
        saves, restores = shrink_wrap_edges(
            function, occupied, allow_jump_edges, avoid_loops, session=session
        )
        # Chow's technique and the modified variant agree on most registers'
        # edges: the session hands the second the first's sets.
        key = (register, saves, restores)
        sets = session.set_groups.get(key)
        if sets is None:
            sets = session.set_groups[key] = RegisterSets(
                session, register, group_edges(edges, saves, restores)
            )
        if convention_errors(session, register, edges.block_mask(occupied), sets.pairs):
            sets = RegisterSets(session, register, [(1, 1 << edges.exit)])
            fallbacks.append(register)
        by_register[register] = sets
    return by_register, fallbacks


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
    by_register, fallbacks = shrink_wrap_sets(
        function, usage, allow_jump_edges, avoid_loops, session
    )
    placement = SpillPlacement(function.name, technique_name)
    placement.fallback_registers = fallbacks
    for sets in by_register.values():
        for srset in sets.sets():
            placement.add_set(srset)
    return placement
