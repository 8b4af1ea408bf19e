"""The entry/exit baseline placement.

Every callee-saved register that is occupied anywhere in the procedure is
saved in the entry block and restored in the (unique) exit block.  This is
the always-valid, lowest-static-overhead placement the paper compares
against; its dynamic cost is two instructions per used register per
invocation.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.session import CompilationSession, session_for
from repro.ir.function import Function
from repro.spill.model import (
    CalleeSavedUsage,
    SaveRestoreSet,
    SpillKind,
    SpillLocation,
    SpillPlacement,
)


def entry_exit_set(
    function: Function, register, session: Optional[CompilationSession] = None
) -> SaveRestoreSet:
    """The always-valid save/restore set: save at entry, restore at exit.

    This is both the baseline placement's building block and the documented
    fallback the other techniques substitute for a register whose derived
    locations fail the soundness check (arbitrary, e.g. irreducible, CFGs).
    """

    keys = session_for(function, session).cfg.placement_edges().keys
    save = SpillLocation(register, SpillKind.SAVE, keys[0])
    restore = SpillLocation(register, SpillKind.RESTORE, keys[-1])
    return SaveRestoreSet.from_locations(register, [save, restore], initial=True)


def place_entry_exit(
    function: Function,
    usage: CalleeSavedUsage,
    session: Optional[CompilationSession] = None,
) -> SpillPlacement:
    """Save at procedure entry and restore at procedure exit."""

    session = session_for(function, session)
    placement = SpillPlacement(function.name, "entry_exit")
    for register in usage.used_registers():
        placement.add_set(entry_exit_set(function, register, session))
    return placement
