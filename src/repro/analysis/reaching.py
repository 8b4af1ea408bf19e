"""Reaching-definitions analysis.

Definitions are identified by ``(block_label, instruction_index, register)``.
The paper groups save/restore locations into save/restore sets the way du-webs
are built (saves begin a web, restores end one); that grouping works on spill
locations directly and lives in :mod:`repro.spill.sets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Set, Tuple

from repro.analysis.dataflow import DataflowProblem, Direction, Meet, solve_dataflow
from repro.ir.function import Function
from repro.ir.values import Register

#: A definition site: (block label, instruction index within block, register).
Definition = Tuple[str, int, Register]


@dataclass
class ReachingDefinitions:
    """Reaching definitions at block boundaries plus per-block definition lists.

    ``reach_in`` / ``reach_out`` are read-only views over the bitset
    solution (see :class:`~repro.analysis.dataflow.DataflowResult`).
    """

    reach_in: Mapping[str, Set[Definition]]
    reach_out: Mapping[str, Set[Definition]]
    definitions: Dict[Register, Set[Definition]]

    def defs_of(self, register: Register) -> Set[Definition]:
        return self.definitions.get(register, set())


def reaching_dataflow_problem(
    function: Function,
) -> Tuple[DataflowProblem, Dict[Register, Set[Definition]]]:
    """The gen/kill formulation of reaching definitions, plus all def sites.

    Shared by :func:`compute_reaching_definitions` and the differential tests
    (which pose the same problem to both the bitset solver and the set-based
    reference).
    """

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

    problem = DataflowProblem(
        direction=Direction.FORWARD,
        meet=Meet.UNION,
        gen=gen,
        kill=kill,
        boundary=set(),
    )
    return problem, all_defs


def compute_reaching_definitions(function: Function) -> ReachingDefinitions:
    """Standard forward union reaching-definitions analysis."""

    problem, all_defs = reaching_dataflow_problem(function)
    result = solve_dataflow(function, problem)
    return ReachingDefinitions(
        reach_in=result.block_in,
        reach_out=result.block_out,
        definitions=all_defs,
    )
