"""A Chaitin/Briggs-style graph-coloring register allocator.

The paper replaces GCC's register allocator with a Chaitin/Briggs
graph-coloring allocator so that all three spill-placement techniques operate
on identical register allocations.  This package plays the same role for the
toy IR:

* :mod:`repro.regalloc.live_ranges` — per-virtual-register live ranges,
  call-crossing information and spill costs;
* :mod:`repro.regalloc.interference` — the interference graph;
* :mod:`repro.regalloc.coloring` — simplify/select colouring with optimistic
  colouring and spill-candidate selection;
* :mod:`repro.regalloc.rewriter` — spill-code insertion and the final
  virtual-to-physical rewrite;
* :mod:`repro.regalloc.callee_saved` — the callee-saved occupancy map
  consumed by the spill-placement pass;
* :mod:`repro.regalloc.allocator` — the driver tying everything together.

Each allocation round numbers its virtual registers once, by the liveness
solution's bit, and runs on integers from there: live-range statistics are
flat lists, interference is one adjacency mask per register, and colouring
pops bits.  ``Register`` objects reappear only in the assignment and the
rewrite; live ranges and the interference graph have no register-keyed
view.  The register-keyed stages this replaced (``LiveRange`` objects, a
``Set[Register]`` graph) are kept as test oracles in
``tests/oracles/regalloc.py``.
"""

from repro.regalloc.allocator import AllocationResult, allocate_registers
from repro.regalloc.callee_saved import compute_callee_saved_usage
from repro.regalloc.interference import InterferenceGraph, build_interference_graph
from repro.regalloc.live_ranges import LiveRangeInfo, compute_live_ranges
from repro.regalloc.coloring import ColoringResult, color_graph

__all__ = [
    "AllocationResult",
    "ColoringResult",
    "InterferenceGraph",
    "LiveRangeInfo",
    "allocate_registers",
    "build_interference_graph",
    "color_graph",
    "compute_callee_saved_usage",
    "compute_live_ranges",
]
