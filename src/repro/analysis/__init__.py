"""Program analyses used by register allocation and spill placement.

The package contains:

* :mod:`repro.analysis.dominance` — dominator and post-dominator trees.
* :mod:`repro.analysis.dataflow` — a generic iterative data-flow framework.
* :mod:`repro.analysis.bitset` — the packed-bitset fast path behind it
  (register ↔ bit interning, integer-mask fixed-point solver).
* :mod:`repro.analysis.liveness` — live-variable analysis.
* :mod:`repro.analysis.reaching` — reaching definitions.
* :mod:`repro.analysis.loops` — natural loops and the loop nesting forest.
* :mod:`repro.analysis.cycle_equiv` — Johnson–Pearson–Pingali cycle
  equivalence (bracket algorithm) plus a brute-force reference.
* :mod:`repro.analysis.sese` — single-entry/single-exit regions.
* :mod:`repro.analysis.pst` — the program structure tree of maximal SESE
  regions used by the hierarchical spill-placement algorithm.
* :mod:`repro.analysis.session` — :class:`CompilationSession`, the
  per-function owner of all of the above, each computed at most once.
"""

from repro.analysis.bitset import (
    BitDataflowProblem,
    BitDataflowResult,
    BitLiveness,
    MaskSetView,
    RegisterIndex,
    solve_bit_dataflow,
)
from repro.analysis.dominance import DominatorTree, compute_dominators, compute_postdominators
from repro.analysis.dataflow import (
    DataflowProblem,
    DataflowResult,
    solve_dataflow,
)
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.loops import (
    Loop,
    LoopForest,
    back_edges_of,
    compute_loop_forest,
    is_reducible,
)
from repro.analysis.pst import ProgramStructureTree, Region, build_pst
from repro.analysis.session import CompilationSession
from repro.analysis.sese import SESERegion, find_canonical_regions, find_maximal_regions

__all__ = [
    "BitDataflowProblem",
    "BitDataflowResult",
    "BitLiveness",
    "CompilationSession",
    "DataflowProblem",
    "DataflowResult",
    "DominatorTree",
    "LivenessInfo",
    "MaskSetView",
    "RegisterIndex",
    "Loop",
    "LoopForest",
    "ProgramStructureTree",
    "Region",
    "SESERegion",
    "back_edges_of",
    "build_pst",
    "compute_dominators",
    "is_reducible",
    "compute_liveness",
    "compute_loop_forest",
    "compute_postdominators",
    "find_canonical_regions",
    "find_maximal_regions",
    "solve_bit_dataflow",
    "solve_dataflow",
]
