"""Reference version of the generic data-flow solver.

:func:`repro.analysis.dataflow.solve_dataflow` runs on packed bitsets.  This
is the pure-``set`` round-robin solver it replaced, kept as a test oracle:
``tests/analysis/test_bitset.py`` asserts both reach the same fixed point.
"""

from __future__ import annotations

from typing import Dict, List, Set, TypeVar

from repro.analysis.dataflow import DataflowProblem, DataflowResult, Direction, Meet
from repro.analysis.graph import cfg_digraph
from repro.ir.function import Function

T = TypeVar("T")


def _meet_sets(values: List[Set[T]], meet: Meet, universe: Set[T]) -> Set[T]:
    if not values:
        return set() if meet is Meet.UNION else set(universe)
    result = set(values[0])
    for value in values[1:]:
        if meet is Meet.UNION:
            result |= value
        else:
            result &= value
    return result


def solve_dataflow_reference(
    function: Function, problem: DataflowProblem[T]
) -> DataflowResult[T]:
    """The original pure-``set`` solver.

    Produces exactly the same fixed point as :func:`solve_dataflow`; the
    property tests assert set-equality between the two on random CFGs.
    """

    labels = function.block_labels
    succs: Dict[str, List[str]] = {label: function.successors(label) for label in labels}
    preds: Dict[str, List[str]] = {label: [] for label in labels}
    for src, dsts in succs.items():
        for dst in dsts:
            preds[dst].append(src)

    universe: Set[T] = set(problem.universe) if problem.universe is not None else set()
    if problem.universe is None:
        for label in labels:
            universe |= problem.gen.get(label, set())
            universe |= problem.kill.get(label, set())
        universe |= problem.boundary

    if problem.initial is not None:
        initial = set(problem.initial)
    else:
        initial = set() if problem.meet is Meet.UNION else set(universe)

    forward = problem.direction is Direction.FORWARD
    entry_label = function.entry.label
    exit_labels = {b.label for b in function.exit_blocks()}

    # "in" is the side facing the meet; "out" the side after the transfer.
    block_in: Dict[str, Set[T]] = {}
    block_out: Dict[str, Set[T]] = {}
    for label in labels:
        block_in[label] = set(initial)
        block_out[label] = set(initial)

    order = cfg_digraph(function.cfg()).reverse_postorder(function.entry.label)
    # Include blocks unreachable from the entry at the end so their facts are
    # still defined (they simply keep pessimistic values).
    order += [label for label in labels if label not in set(order)]
    if not forward:
        order = list(reversed(order))

    def transfer(label: str, incoming: Set[T]) -> Set[T]:
        gen = problem.gen.get(label, set())
        kill = problem.kill.get(label, set())
        return gen | (incoming - kill)

    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > 4 * len(labels) + 16:
            raise RuntimeError("data-flow iteration failed to converge")
        for label in order:
            if forward:
                if label == entry_label:
                    incoming = set(problem.boundary)
                else:
                    incoming = _meet_sets(
                        [block_out[p] for p in preds[label]], problem.meet, universe
                    )
            else:
                if label in exit_labels:
                    incoming = set(problem.boundary)
                else:
                    incoming = _meet_sets(
                        [block_out[s] for s in succs[label]], problem.meet, universe
                    )
            outgoing = transfer(label, incoming)
            if incoming != block_in[label] or outgoing != block_out[label]:
                block_in[label] = incoming
                block_out[label] = outgoing
                changed = True

    if forward:
        return DataflowResult(block_in=block_in, block_out=block_out)
    # For backward problems, "in" as seen by callers is the block entry, which
    # is the transfer output; rename accordingly so callers always index by
    # program order (entering = at block start, leaving = at block end).
    return DataflowResult(block_in=block_out, block_out=block_in)
