"""Validity checking for callee-saved spill placements.

A placement is valid for a register when, along every execution path:

* the original callee-saved value is saved before the register is first
  occupied by a program variable,
* a restore only executes when the value is currently saved (otherwise it
  would load garbage or clobber a live variable),
* a save only executes when the original value is still in the register
  (otherwise it would save a variable's value on top of the original), and
* the original value is back in the register at the procedure exit.

The check is a small abstract interpretation over the CFG with the state
domain ``{ORIGINAL, SAVED}``; paths that disagree about the state at a merge
point make the placement invalid (the state must be a function of the program
point for straight-line save/restore code to be correct).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.bitset import bit_positions
from repro.analysis.session import CompilationSession, session_for
from repro.ir.cfg import FunctionCFG
from repro.ir.function import Function
from repro.ir.values import PhysicalRegister
from repro.spill.model import CalleeSavedUsage, SaveRestoreSet, SpillLocation, SpillPlacement
from repro.spill.sets import set_masks


class PlacementError(ValueError):
    """Raised when a spill placement violates the callee-saved convention."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# What sits on one edge: a save, a restore, more than one of either.
_SAVE, _RESTORE, _DUPLICATE = 1, 2, 4


def _apply_edge(saved: bool, code: int, edge, errors: List[str], name: str) -> bool:
    """Apply the locations on one edge to the state: is the value saved after it?"""

    if code & _DUPLICATE:
        errors.append(f"{name}: duplicate locations on edge {edge}")
    if code & _SAVE:
        if code & _RESTORE:
            errors.append(f"{name}: both save and restore on edge {edge}")
            return saved
        if saved:
            errors.append(f"{name}: save on edge {edge} reached with the value already saved")
        return True
    if not saved:
        errors.append(f"{name}: restore on edge {edge} reached without a prior save")
    return False


def walk_register_convention(
    cfg: FunctionCFG,
    register: PhysicalRegister,
    occupied: int,
    saves: int,
    restores: int,
    duplicates: int = 0,
    strays: Sequence[SpillLocation] = (),
) -> List[str]:
    """Every convention violation of one register's save and restore edges.

    One abstract-interpretation walk over the CFG.  ``occupied`` is a block
    mask; ``saves``, ``restores`` and ``duplicates`` (edges with two saves
    or two restores) are edge masks; ``strays`` are locations on no edge.
    """

    edges = cfg.placement_edges()
    keys, dst, out, labels = edges.keys, edges.dst, edges.out, cfg.labels
    name = register.name
    errors: List[str] = []
    codes: Dict[int, int] = dict.fromkeys(bit_positions(saves), _SAVE)
    for n in bit_positions(restores):
        codes[n] = codes.get(n, 0) | _RESTORE
    for n in bit_positions(duplicates) if duplicates else ():
        codes[n] |= _DUPLICATE
    occupied_blocks = set(bit_positions(occupied))

    # State at block entry, propagated to a fixed point; None = unknown.
    saved_at: List[Optional[bool]] = [None] * len(labels)
    entry = dst[0]
    code = codes.get(0)
    saved_at[entry] = False if code is None else _apply_edge(False, code, keys[0], errors, name)
    worklist = [entry]
    while worklist:
        block = worklist.pop()
        saved = saved_at[block]
        if not saved and block in occupied_blocks:
            errors.append(
                f"{name}: block {labels[block]!r} is occupied but the original "
                "value was never saved on some path"
            )
        for n in out[block]:
            target = dst[n]
            if target < 0:
                continue  # the procedure-exit edge, applied after the walk
            code = codes.get(n)
            next_saved = saved if code is None else _apply_edge(saved, code, keys[n], errors, name)
            previous = saved_at[target]
            if previous is None:
                saved_at[target] = next_saved
                worklist.append(target)
            elif previous is not next_saved:
                errors.append(
                    f"{name}: conflicting saved/unsaved state at block "
                    f"{labels[target]!r} (paths disagree)"
                )

    exit_saved = saved_at[edges.position[keys[edges.exit][0]]]
    if exit_saved is not None:
        code = codes.get(edges.exit)
        if code is not None:
            exit_saved = _apply_edge(exit_saved, code, keys[edges.exit], errors, name)
        if exit_saved:
            errors.append(
                f"{name}: procedure exit reached with the original value "
                "still in the save slot (missing restore)"
            )

    for location in strays:
        errors.append(f"{name}: location {location} does not lie on a CFG edge")
    return errors


def convention_errors(
    session: CompilationSession,
    register: PhysicalRegister,
    occupied: int,
    sets: Iterable[Tuple[int, int]],
    strays: Sequence[SpillLocation] = (),
) -> List[str]:
    """One register's convention errors, walked once per content per session.

    ``sets`` are ``(saves, restores)`` edge-mask pairs and ``occupied`` a
    block mask.  This is the placement techniques' safety net:
    dataflow-derived locations are provably correct on the CFG shapes the
    paper analyses, but arbitrary (e.g. irreducible) flowgraphs may break a
    technique's assumptions, and a register whose sets fail falls back to
    entry/exit placement.  The memo key — register name, occupied blocks,
    save, restore and duplicated edges — is all the verdict depends on, so
    verification reuses the nets' verdicts.  Read-only result.
    """

    saves = restores = duplicates = 0
    for set_saves, set_restores in sets:
        duplicates |= saves & set_saves | restores & set_restores
        saves |= set_saves
        restores |= set_restores
    key = (register.name, occupied, saves, restores, duplicates)
    errors = None if strays else session.set_errors.get(key)
    if errors is None:
        errors = walk_register_convention(
            session.cfg, register, occupied, saves, restores, duplicates, strays
        )
        if not strays:
            session.set_errors[key] = errors
    return errors


def register_errors(
    session: CompilationSession,
    register: PhysicalRegister,
    occupied: FrozenSet[str],
    sets: Sequence[SaveRestoreSet],
) -> List[str]:
    """:func:`convention_errors` of ``sets`` on the ``occupied`` blocks."""

    edges = session.cfg.placement_edges()
    pairs, strays = [], []
    for srset in sets:
        saves, restores, set_strays = set_masks(session, srset)
        pairs.append((saves, restores))
        strays += set_strays
    return convention_errors(session, register, edges.block_mask(occupied), pairs, tuple(strays))


def collect_placement_errors(
    function: Function,
    usage: CalleeSavedUsage,
    placement: SpillPlacement,
    cfg: Optional[FunctionCFG] = None,
    session: Optional[CompilationSession] = None,
) -> List[str]:
    """Every convention violation of ``placement``, register by register."""

    session = session_for(function, session, cfg)
    errors: List[str] = []
    for register in usage.used_registers():
        sets = placement.sets.get(register, ())
        errors.extend(register_errors(session, register, usage.blocks_for(register), sets))
    return errors


def verify_placement(
    function: Function,
    usage: CalleeSavedUsage,
    placement: SpillPlacement,
    cfg: Optional[FunctionCFG] = None,
    session: Optional[CompilationSession] = None,
) -> None:
    """Raise :class:`PlacementError` when ``placement`` is invalid."""

    errors = collect_placement_errors(function, usage, placement, cfg=cfg, session=session)
    if errors:
        raise PlacementError(errors)


def register_sets_are_sound(function, register, used_blocks, sets, cfg=None) -> bool:
    """Whether one register's save/restore sets meet the convention."""

    return not register_errors(session_for(function, cfg=cfg), register, used_blocks, sets)
