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

import enum
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.analysis.session import CompilationSession, session_for
from repro.ir.cfg import FunctionCFG
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.ir.values import PhysicalRegister
from repro.spill.model import (
    CalleeSavedUsage,
    EdgeKey,
    SaveRestoreSet,
    SpillLocation,
    SpillPlacement,
)


class PlacementError(ValueError):
    """Raised when a spill placement violates the callee-saved convention."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class _State(enum.Enum):
    ORIGINAL = "original"   # the callee-saved value is (still) in the register
    SAVED = "saved"         # the value is in the save slot; the register is free


def _apply_edge(
    state: _State,
    edge: EdgeKey,
    locations: List[SpillLocation],
    errors: List[str],
    register: PhysicalRegister,
) -> _State:
    """Apply the save/restore locations sitting on one edge to the state."""

    saves = [l for l in locations if l.is_save()]
    restores = [l for l in locations if l.is_restore()]
    if len(saves) > 1 or len(restores) > 1:
        errors.append(f"{register.name}: duplicate locations on edge {edge}")
    if saves and restores:
        errors.append(f"{register.name}: both save and restore on edge {edge}")
        return state
    if saves:
        if state is not _State.ORIGINAL:
            errors.append(
                f"{register.name}: save on edge {edge} reached with the value already saved"
            )
        return _State.SAVED
    if restores:
        if state is not _State.SAVED:
            errors.append(
                f"{register.name}: restore on edge {edge} reached without a prior save"
            )
        return _State.ORIGINAL
    return state


def walk_register_convention(
    cfg: FunctionCFG,
    register: PhysicalRegister,
    occupied: FrozenSet[str],
    sets: Sequence[SaveRestoreSet],
) -> List[str]:
    """Every convention violation of one register's save/restore ``sets``.

    One abstract-interpretation walk over the CFG; ``occupied`` are the
    blocks the register is occupied in.
    """

    errors: List[str] = []
    locations = [location for srset in sets for location in srset.locations]
    by_edge: Dict[EdgeKey, List[SpillLocation]] = {}
    for location in locations:
        by_edge.setdefault(location.edge, []).append(location)
    entry = cfg.entry_label
    exit_label = cfg.exit_label
    block_out_edges = cfg.out_edges

    # State at block entry, propagated to a fixed point; absent = unknown.
    state_at: Dict[str, _State] = {}
    entry_key = (ENTRY_SENTINEL, entry)
    entry_locations = by_edge.get(entry_key)
    if entry_locations is None:
        entry_state = _State.ORIGINAL
    else:
        entry_state = _apply_edge(_State.ORIGINAL, entry_key, entry_locations, errors, register)
    state_at[entry] = entry_state

    worklist = [entry]
    while worklist:
        label = worklist.pop()
        state = state_at[label]
        if label in occupied and state is not _State.SAVED:
            errors.append(
                f"{register.name}: block {label!r} is occupied but the original "
                "value was never saved on some path"
            )
        for edge in block_out_edges[label]:
            key = edge.key
            edge_locations = by_edge.get(key)
            if edge_locations is None:
                # No spill code on this edge: the state passes through.
                next_state = state
            else:
                next_state = _apply_edge(state, key, edge_locations, errors, register)
            previous = state_at.get(edge.dst)
            if previous is None:
                state_at[edge.dst] = next_state
                worklist.append(edge.dst)
            elif previous is not next_state:
                errors.append(
                    f"{register.name}: conflicting saved/unsaved state at block "
                    f"{edge.dst!r} (paths disagree)"
                )

    exit_state = state_at.get(exit_label)
    if exit_state is not None:
        exit_key = (exit_label, EXIT_SENTINEL)
        exit_locations = by_edge.get(exit_key)
        if exit_locations is None:
            final = exit_state
        else:
            final = _apply_edge(exit_state, exit_key, exit_locations, errors, register)
        if final is not _State.ORIGINAL:
            errors.append(
                f"{register.name}: procedure exit reached with the original value "
                "still in the save slot (missing restore)"
            )

    # Every location must sit on an edge that actually exists.
    valid_edges = cfg.placement_edge_keys()
    for location in locations:
        if location.edge not in valid_edges:
            errors.append(f"{register.name}: location {location} does not lie on a CFG edge")
    return errors


def register_errors(
    session: CompilationSession,
    register: PhysicalRegister,
    occupied: FrozenSet[str],
    sets: Sequence[SaveRestoreSet],
) -> List[str]:
    """One register's convention errors, walked once per content per session.

    This is the placement techniques' safety net: dataflow-derived locations
    are provably correct on the CFG shapes the paper analyses, but arbitrary
    (e.g. irreducible) flowgraphs may break a technique's assumptions, and a
    register whose sets fail falls back to entry/exit placement.  The memo
    key — register, occupied blocks, the sets' locations — is all the verdict
    depends on, so verification reuses the nets' verdicts.  Read-only result.
    """

    occupied = frozenset(occupied)
    key = (register, occupied, tuple(srset.locations for srset in sets))
    errors = session.set_errors.get(key)
    if errors is None:
        errors = walk_register_convention(session.cfg, register, occupied, sets)
        session.set_errors[key] = errors
    return errors


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
