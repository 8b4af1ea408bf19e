"""A generic iterative data-flow framework over CFG blocks.

Both shrink-wrapping and the construction of save/restore sets are phrased as
bit-style data-flow problems; liveness and reaching definitions use the same
machinery.  The framework supports forward and backward problems with a
configurable meet (set union or set intersection) and per-block transfer
functions of the usual ``gen``/``kill`` form.

Internally the solver runs on packed bitsets (:mod:`repro.analysis.bitset`):
facts are interned to bit positions once and the fixed-point iteration is
pure integer arithmetic.  The public API is unchanged — problems are posed
with ordinary ``set`` objects and results are materialized back into sets
lazily, per block, on first access.  The original set-based solver is a test
oracle (``tests/oracles/dataflow.py``); the differential property tests
compare the two on random CFGs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generic, Mapping, Optional, Set, TypeVar

from repro.analysis.bitset import (
    BitDataflowProblem,
    MaskSetView,
    RegisterIndex,
    solve_bit_dataflow,
)
from repro.ir.function import Function

T = TypeVar("T")


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class Meet(enum.Enum):
    UNION = "union"
    INTERSECTION = "intersection"


@dataclass
class DataflowProblem(Generic[T]):
    """Specification of an iterative data-flow problem on sets of facts.

    Parameters
    ----------
    direction:
        Forward problems propagate from predecessors to successors, backward
        problems from successors to predecessors.
    meet:
        How facts from multiple neighbours combine at block boundaries.
    gen / kill:
        Per-block fact sets; the transfer function is
        ``out = gen ∪ (in − kill)`` (or the symmetric form for backward
        problems).
    boundary:
        Facts holding at the procedure entry (forward) or exit (backward).
    initial:
        Initial value for interior blocks; defaults to the empty set for
        union problems and the universe (all gen facts) for intersection
        problems, the standard optimistic initialization.
    """

    direction: Direction
    meet: Meet
    gen: Dict[str, Set[T]]
    kill: Dict[str, Set[T]]
    boundary: Set[T] = field(default_factory=set)
    initial: Optional[Set[T]] = None
    universe: Optional[Set[T]] = None


@dataclass
class DataflowResult(Generic[T]):
    """Solution of a data-flow problem: facts at block entry and exit.

    ``block_in`` / ``block_out`` are **read-only** mappings; from the bitset
    solver they are lazy :class:`~repro.analysis.bitset.MaskSetView` views
    that materialize a block's set on first access.  Treat the solution as
    immutable — mutating a materialized set does not feed back into the
    underlying bitmask solution.
    """

    block_in: Mapping[str, Set[T]]
    block_out: Mapping[str, Set[T]]

    def entering(self, label: str) -> Set[T]:
        return self.block_in[label]

    def leaving(self, label: str) -> Set[T]:
        return self.block_out[label]


def solve_dataflow(function: Function, problem: DataflowProblem[T]) -> DataflowResult[T]:
    """Solve ``problem`` on the CFG of ``function`` by round-robin iteration.

    The solver interns every fact to a bit position, iterates on integer
    bitmasks in reverse post-order (forward problems) or post-order (backward
    problems) until a fixed point is reached, and returns lazily-materialized
    set views.
    """

    index: RegisterIndex = RegisterIndex()
    gen = {label: index.mask_of(facts) for label, facts in problem.gen.items()}
    kill = {label: index.mask_of(facts) for label, facts in problem.kill.items()}
    boundary = index.mask_of(problem.boundary)
    initial = index.mask_of(problem.initial) if problem.initial is not None else None
    universe = index.mask_of(problem.universe) if problem.universe is not None else None

    bit_problem = BitDataflowProblem(
        forward=problem.direction is Direction.FORWARD,
        union=problem.meet is Meet.UNION,
        gen=gen,
        kill=kill,
        boundary=boundary,
        initial=initial,
        universe=universe,
    )
    result = solve_bit_dataflow(function, bit_problem)
    return DataflowResult(
        block_in=MaskSetView(result.block_in, index),
        block_out=MaskSetView(result.block_out, index),
    )
