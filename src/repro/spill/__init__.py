"""Callee-saved spill code placement (the paper's contribution).

The package implements three placement techniques operating on the same
inputs — a function in single-exit form, the callee-saved *occupancy*
produced by the register allocator, and an edge profile:

* :func:`~repro.spill.entry_exit.place_entry_exit` — the baseline: save every
  used callee-saved register in the entry block, restore in the exit block.
* :func:`~repro.spill.shrink_wrap.place_shrink_wrap` — Chow's shrink-wrapping
  (data-flow based, loop avoidance, no spill code on jump edges) and the
  *modified* variant used as the starting point of the hierarchical
  algorithm (jump edges allowed, no artificial loop flow).
* :func:`~repro.spill.hierarchical.place_hierarchical` — the hierarchical
  spill code placement algorithm: program-structure-tree traversal hoisting
  save/restore sets to maximal-SESE-region boundaries whenever that lowers
  the profile-weighted cost.

Supporting modules: the placement data model (:mod:`repro.spill.model`), cost
models (:mod:`repro.spill.cost_models`), save/restore-set construction
(:mod:`repro.spill.sets`), placement validity verification
(:mod:`repro.spill.verifier`) and code insertion including jump blocks
(:mod:`repro.spill.insertion`).
"""

from repro.spill.cost_models import (
    CostModel,
    ExecutionCountCostModel,
    JumpEdgeCostModel,
    requires_jump_block,
)
from repro.spill.entry_exit import entry_exit_set, place_entry_exit
from repro.spill.hierarchical import HierarchicalResult, RegionDecision, place_hierarchical
from repro.spill.insertion import InsertionResult, apply_placement
from repro.spill.model import (
    CalleeSavedUsage,
    SaveRestoreSet,
    SpillKind,
    SpillLocation,
    SpillPlacement,
)
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.shrink_wrap import place_shrink_wrap, shrink_wrap_edges
from repro.spill.verifier import (
    PlacementError,
    register_sets_are_sound,
    verify_placement,
)

__all__ = [
    "CalleeSavedUsage",
    "CostModel",
    "ExecutionCountCostModel",
    "HierarchicalResult",
    "InsertionResult",
    "JumpEdgeCostModel",
    "PlacementError",
    "RegionDecision",
    "SaveRestoreSet",
    "SpillKind",
    "SpillLocation",
    "SpillPlacement",
    "apply_placement",
    "entry_exit_set",
    "place_entry_exit",
    "place_hierarchical",
    "place_shrink_wrap",
    "placement_dynamic_overhead",
    "requires_jump_block",
    "shrink_wrap_edges",
    "register_sets_are_sound",
    "verify_placement",
]
