"""Set-based reference formulations of the register data-flow analyses.

The shipped analyses run on packed register masks:
:func:`repro.analysis.bitset.solve_bit_dataflow`, liveness in
:mod:`repro.analysis.liveness` and the lint session's ``defined_in`` masks.
These are the pure-``set`` versions they replaced, kept as test oracles:

* :func:`solve_dataflow_reference` — the round-robin union solver over sets;
* :func:`reference_liveness` — live-variable analysis over register sets;
* :func:`reaching_definitions` — reaching definitions as
  ``(block, instruction index, register)`` triples, the oracle of lint
  rule R001;
* :func:`register_sets` — reads a mask solution back as register sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, List, Set, Tuple, TypeVar

from repro.analysis.graph import cfg_digraph
from repro.ir.function import Function
from repro.ir.values import Register

T = TypeVar("T")

#: A definition site: (block label, instruction index within block, register).
Definition = Tuple[str, int, Register]


def register_sets(index, masks):
    """``masks`` over ``index`` as register sets: one mask, a ``label -> mask``
    mapping or a list of masks."""

    if isinstance(masks, int):
        return index.set_of(masks)
    if isinstance(masks, dict):
        return {label: index.set_of(mask) for label, mask in masks.items()}
    return [index.set_of(mask) for mask in masks]


@dataclass
class DataflowProblem(Generic[T]):
    """A union-meet gen/kill problem on sets of facts.

    The transfer function is ``out = gen ∪ (in − kill)``; nothing flows into
    the entry (forward problems) or out of the exits (backward problems).
    """

    forward: bool
    gen: Dict[str, Set[T]]
    kill: Dict[str, Set[T]]


@dataclass
class DataflowResult(Generic[T]):
    """Facts at each block's start (``block_in``) and end (``block_out``)."""

    block_in: Dict[str, Set[T]]
    block_out: Dict[str, Set[T]]


def solve_dataflow_reference(
    function: Function, problem: DataflowProblem[T]
) -> DataflowResult[T]:
    """The original pure-``set`` solver.

    Produces exactly the same fixed point as
    :func:`~repro.analysis.bitset.solve_bit_dataflow`; the property tests
    assert set-equality between the two on random CFGs.
    """

    labels = function.block_labels
    succs: Dict[str, List[str]] = {label: function.successors(label) for label in labels}
    preds: Dict[str, List[str]] = {label: [] for label in labels}
    for src, dsts in succs.items():
        for dst in dsts:
            preds[dst].append(src)

    forward = problem.forward
    entry_label = function.entry.label
    exit_labels = {b.label for b in function.exit_blocks()}

    # "in" is the side facing the meet; "out" the side after the transfer.
    block_in: Dict[str, Set[T]] = {label: set() for label in labels}
    block_out: Dict[str, Set[T]] = {label: set() for label in labels}

    order = cfg_digraph(function.cfg()).reverse_postorder(function.entry.label)
    # Include blocks unreachable from the entry at the end so their facts are
    # still defined.
    order += [label for label in labels if label not in set(order)]
    if not forward:
        order = list(reversed(order))

    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > 4 * len(labels) + 16:
            raise RuntimeError("data-flow iteration failed to converge")
        for label in order:
            incoming: Set[T] = set()
            if forward and label != entry_label:
                for pred in preds[label]:
                    incoming |= block_out[pred]
            elif not forward and label not in exit_labels:
                for succ in succs[label]:
                    incoming |= block_out[succ]
            gen = problem.gen.get(label, set())
            kill = problem.kill.get(label, set())
            outgoing = gen | (incoming - kill)
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


# -- liveness ------------------------------------------------------------------------


@dataclass
class SetLiveness:
    """Block-level liveness as register sets."""

    live_in: Dict[str, Set[Register]]
    live_out: Dict[str, Set[Register]]
    uses: Dict[str, Set[Register]]
    defs: Dict[str, Set[Register]]


def block_upward_exposed_uses(instructions) -> Tuple[Set[Register], Set[Register]]:
    """Return ``(upward_exposed_uses, defs)`` for a straight-line sequence."""

    exposed: Set[Register] = set()
    defined: Set[Register] = set()
    for inst in instructions:
        for reg in inst.registers_read():
            if reg not in defined:
                exposed.add(reg)
        defined.update(inst.registers_written())
    return exposed, defined


def reference_liveness(function: Function) -> SetLiveness:
    """Liveness as a backward union problem over register sets."""

    uses: Dict[str, Set[Register]] = {}
    defs: Dict[str, Set[Register]] = {}
    for block in function.blocks:
        uses[block.label], defs[block.label] = block_upward_exposed_uses(block.instructions)
    result = solve_dataflow_reference(function, DataflowProblem(False, uses, defs))
    return SetLiveness(result.block_in, result.block_out, uses, defs)


def reference_live_after(function: Function, liveness, label: str) -> List[Set[Register]]:
    """Registers live after each instruction of block ``label``."""

    block = function.block(label)
    live = set(liveness.live_out[label])
    after: List[Set[Register]] = [set() for _ in block.instructions]
    for i in range(len(block.instructions) - 1, -1, -1):
        after[i] = set(live)
        inst = block.instructions[i]
        live -= set(inst.registers_written())
        live |= set(inst.registers_read())
    return after


# -- reaching definitions ------------------------------------------------------------


def reaching_definitions(function: Function) -> DataflowResult[Definition]:
    """Forward union reaching definitions over definition-site triples."""

    all_defs: Dict[Register, Set[Definition]] = {}
    gen: Dict[str, Set[Definition]] = {}
    kill_regs: Dict[str, Set[Register]] = {}
    for block in function.blocks:
        block_gen: Dict[Register, Definition] = {}
        for index, inst in enumerate(block.instructions):
            for reg in inst.registers_written():
                definition = (block.label, index, reg)
                all_defs.setdefault(reg, set()).add(definition)
                block_gen[reg] = definition  # later defs shadow earlier ones
        gen[block.label] = set(block_gen.values())
        kill_regs[block.label] = set(block_gen.keys())

    # The kill set of a block is every definition of a register it redefines,
    # except the one it generates itself.
    kill: Dict[str, Set[Definition]] = {}
    for label, regs in kill_regs.items():
        killed: Set[Definition] = set()
        for reg in regs:
            killed |= all_defs[reg]
        kill[label] = killed - gen[label]
    return solve_dataflow_reference(function, DataflowProblem(True, gen, kill))
