"""Reference versions of the callee-saved placement engine (test oracles).

:func:`repro.spill.shrink_wrap.save_restore_edges` solves the two boolean
data-flow problems as whole-CFG sweeps over integer masks; this module keeps
the dict-based Gauss-Seidel solver it replaced
(:func:`compute_anticipation_availability`, checked by
``tests/spill/test_mask_aa_equivalence.py`` and on the paper's example).

The placement engine groups save/restore sets, walks the callee-saved
convention and sums a placement's overhead over numbered edges
(:class:`repro.ir.cfg.PlacementEdges`).  The location-keyed versions those
replaced are kept here — :func:`build_save_restore_sets`,
:func:`walk_register_convention` and :func:`placement_overhead` — and
``tests/spill/test_edge_mask_equivalence.py`` asserts the engine agrees
with them set for set, error string for error string and bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.ir.cfg import EdgeKind, FunctionCFG
from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL, Function
from repro.ir.values import PhysicalRegister
from repro.profiling.profile_data import EdgeProfile
from repro.spill.model import EdgeKey, SaveRestoreSet, SpillLocation, SpillPlacement
from repro.spill.overhead import PlacementOverhead
from repro.target.machine import cost_weights


@dataclass(frozen=True)
class AnticipationAvailability:
    """Block-level solutions of the two boolean data-flow problems."""

    ant_in: Dict[str, bool]
    ant_out: Dict[str, bool]
    av_in: Dict[str, bool]
    av_out: Dict[str, bool]


def compute_anticipation_availability(
    function: Function, used_blocks: FrozenSet[str]
) -> AnticipationAvailability:
    """Solve the anticipation and availability problems for one register.

    The dict-based reference solver; the placement hot path uses
    ``_solve_aa_masks`` and the property tests assert both agree.
    """

    labels = function.block_labels
    succs = {label: function.successors(label) for label in labels}
    preds: Dict[str, List[str]] = {label: [] for label in labels}
    for src, dsts in succs.items():
        for dst in dsts:
            preds[dst].append(src)
    used = {label: label in used_blocks for label in labels}
    entry = function.entry.label
    exits = {b.label for b in function.exit_blocks()}

    # Availability: forward, intersection meet.  The procedure entry has an
    # implicit unoccupied path, so AVIN(entry) is always false.
    av_in = {label: False for label in labels}
    av_out = {label: used[label] for label in labels}
    changed = True
    while changed:
        changed = False
        for label in labels:
            if label == entry:
                new_in = False
            else:
                new_in = all(av_out[p] for p in preds[label]) if preds[label] else False
            new_out = new_in or used[label]
            if new_in != av_in[label] or new_out != av_out[label]:
                av_in[label], av_out[label] = new_in, new_out
                changed = True

    # Anticipation: backward, intersection meet.  The procedure exit has an
    # implicit path that leaves the procedure, so ANTOUT(exit) is always false.
    ant_out = {label: False for label in labels}
    ant_in = {label: used[label] for label in labels}
    changed = True
    while changed:
        changed = False
        for label in reversed(labels):
            if label in exits:
                new_out = False
            else:
                new_out = all(ant_in[s] for s in succs[label]) if succs[label] else False
            new_in = new_out or used[label]
            if new_out != ant_out[label] or new_in != ant_in[label]:
                ant_out[label], ant_in[label] = new_out, new_in
                changed = True

    return AnticipationAvailability(ant_in=ant_in, ant_out=ant_out, av_in=av_in, av_out=av_out)


# ---------------------------------------------------------------------------
# Location-keyed placement engine.
# ---------------------------------------------------------------------------


def requires_jump_block(cfg: FunctionCFG, edge: EdgeKey) -> bool:
    """Does spill code on ``edge`` need a new block ending in a jump?"""

    src, dst = edge
    if src == ENTRY_SENTINEL or dst == EXIT_SENTINEL:
        return False
    if dst != cfg.entry_label and len(cfg.preds.get(dst, ())) == 1:
        return False
    if len(cfg.succs[src]) == 1:
        return False
    return cfg.edge(src, dst).kind is EdgeKind.JUMP


def build_save_restore_sets(
    cfg: FunctionCFG,
    register: PhysicalRegister,
    locations: Iterable[SpillLocation],
    initial: bool = True,
) -> List[SaveRestoreSet]:
    """Partition one register's locations into save/restore sets.

    A save and a location share a set when the location is reachable from
    the save without crossing another location; union-find over locations.
    """

    locations = [l for l in locations if l.register == register]
    by_edge: Dict[EdgeKey, List[SpillLocation]] = {}
    for location in locations:
        by_edge.setdefault(location.edge, []).append(location)
    parent: Dict[SpillLocation, SpillLocation] = {l: l for l in locations}

    def find(item: SpillLocation) -> SpillLocation:
        while parent[item] != item:
            item = parent[item]
        return item

    exit_label = cfg.exit_label
    for save in locations:
        if not save.is_save():
            continue
        visited: Set[str] = set()
        frontier = [save.edge[1]]
        while frontier:
            label = frontier.pop()
            if label in visited:
                continue
            visited.add(label)
            out_edges = [e.key for e in cfg.out_edges[label]]
            if label == exit_label:
                out_edges.append((exit_label, EXIT_SENTINEL))
            for key in out_edges:
                if key in by_edge:
                    for other in by_edge[key]:
                        root_a, root_b = find(save), find(other)
                        if root_a != root_b:
                            parent[root_a] = root_b
                    continue
                if key[1] != EXIT_SENTINEL and key[1] not in visited:
                    frontier.append(key[1])

    groups: Dict[SpillLocation, List[SpillLocation]] = {}
    for location in locations:
        groups.setdefault(find(location), []).append(location)
    sets = [SaveRestoreSet.from_locations(register, g, initial) for g in groups.values()]
    sets.sort(key=lambda s: sorted(l.edge for l in s.locations))
    return sets


class _State(enum.Enum):
    ORIGINAL = "original"
    SAVED = "saved"


def walk_register_convention(
    cfg: FunctionCFG,
    register: PhysicalRegister,
    occupied: FrozenSet[str],
    sets: Sequence[SaveRestoreSet],
) -> List[str]:
    """Every convention violation of one register's sets, by abstract interpretation."""

    errors: List[str] = []
    name = register.name
    locations = [location for srset in sets for location in srset.locations]
    by_edge: Dict[EdgeKey, List[SpillLocation]] = {}
    for location in locations:
        by_edge.setdefault(location.edge, []).append(location)

    def apply(state: _State, edge: EdgeKey) -> _State:
        on_edge = by_edge.get(edge)
        if on_edge is None:
            return state
        saves = [l for l in on_edge if l.is_save()]
        restores = [l for l in on_edge if l.is_restore()]
        if len(saves) > 1 or len(restores) > 1:
            errors.append(f"{name}: duplicate locations on edge {edge}")
        if saves and restores:
            errors.append(f"{name}: both save and restore on edge {edge}")
            return state
        if saves:
            if state is not _State.ORIGINAL:
                errors.append(f"{name}: save on edge {edge} reached with the value already saved")
            return _State.SAVED
        if state is not _State.SAVED:
            errors.append(f"{name}: restore on edge {edge} reached without a prior save")
        return _State.ORIGINAL

    entry, exit_label = cfg.entry_label, cfg.exit_label
    state_at: Dict[str, _State] = {entry: apply(_State.ORIGINAL, (ENTRY_SENTINEL, entry))}
    worklist = [entry]
    while worklist:
        label = worklist.pop()
        state = state_at[label]
        if label in occupied and state is not _State.SAVED:
            errors.append(
                f"{name}: block {label!r} is occupied but the original "
                "value was never saved on some path"
            )
        for edge in cfg.out_edges[label]:
            next_state = apply(state, edge.key)
            previous = state_at.get(edge.dst)
            if previous is None:
                state_at[edge.dst] = next_state
                worklist.append(edge.dst)
            elif previous is not next_state:
                errors.append(
                    f"{name}: conflicting saved/unsaved state at block "
                    f"{edge.dst!r} (paths disagree)"
                )
    if exit_label in state_at:
        final = apply(state_at[exit_label], (exit_label, EXIT_SENTINEL))
        if final is not _State.ORIGINAL:
            errors.append(
                f"{name}: procedure exit reached with the original value "
                "still in the save slot (missing restore)"
            )
    valid = {(ENTRY_SENTINEL, entry), (exit_label, EXIT_SENTINEL)} | {e.key for e in cfg.edges}
    for location in locations:
        if location.edge not in valid:
            errors.append(f"{name}: location {location} does not lie on a CFG edge")
    return errors


def placement_overhead(
    cfg: FunctionCFG, profile: EdgeProfile, placement: SpillPlacement, machine=None
) -> PlacementOverhead:
    """A placement's dynamic overhead, summed location by location.

    Locations in the placement's canonical order; each jump edge is charged
    once, in the order its first location appears.
    """

    save_weight, restore_weight, jump_weight = cost_weights(machine)
    save_count = restore_count = jump_count = 0.0
    by_edge: Dict[EdgeKey, List[SpillLocation]] = {}
    for location in placement.locations():
        count = profile.edge_count(location.edge)
        if location.is_save():
            save_count += count * save_weight
        else:
            restore_count += count * restore_weight
        by_edge.setdefault(location.edge, []).append(location)
    jump_edges = [edge for edge in by_edge if requires_jump_block(cfg, edge)]
    for edge in jump_edges:
        jump_count += profile.edge_count(edge) * jump_weight
    return PlacementOverhead(save_count, restore_count, jump_count, len(jump_edges))
