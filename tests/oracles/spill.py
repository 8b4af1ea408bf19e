"""Reference version of shrink-wrapping's anticipation/availability solve.

:func:`repro.spill.shrink_wrap.save_restore_edges` solves the two boolean
data-flow problems as whole-CFG sweeps over integer masks.  This is the
dict-based Gauss-Seidel solver it replaced, kept as a test oracle:
``tests/spill/test_mask_aa_equivalence.py`` asserts both reach the same
fixed point, and ``tests/spill/test_placements.py`` checks its solutions on
the paper's example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.ir.function import Function


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
