"""Structural verification of IR functions and modules.

The verifier enforces the invariants the analyses and spill-placement passes
rely on.  Passes and workload generators call it after building or rewriting
functions; tests call it pervasively.
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function, blocks_reaching_exit, reachable_blocks
from repro.ir.instructions import Opcode
from repro.ir.module import Module


class IRVerificationError(ValueError):
    """Raised when a function or module violates a structural invariant."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def collect_function_errors(function: Function, require_single_exit: bool = False) -> List[str]:
    """Return a list of human-readable invariant violations (empty when valid)."""

    errors: List[str] = []
    if len(function) == 0:
        return [f"function {function.name!r} has no blocks"]

    labels = set(function.block_labels)

    for block in function.blocks:
        # Terminators may only appear as the last instruction.
        for inst in block.instructions[:-1]:
            if inst.is_terminator():
                errors.append(
                    f"{function.name}/{block.label}: terminator {inst} is not last"
                )
        term = block.terminator
        # Branch/jump targets must exist.
        if term is not None and term.opcode in (Opcode.BR, Opcode.JMP):
            if term.target.name not in labels:
                errors.append(
                    f"{function.name}/{block.label}: target {term.target.name!r} "
                    "is not a block label"
                )
        # Switch targets must exist and be distinct (the CFG keeps one edge
        # per (src, dst) pair, so duplicate targets would silently alias).
        if term is not None and term.opcode is Opcode.SWITCH:
            for case_target in term.targets:
                if case_target.name not in labels:
                    errors.append(
                        f"{function.name}/{block.label}: switch target "
                        f"{case_target.name!r} is not a block label"
                    )
            names = [t.name for t in term.targets]
            if len(set(names)) != len(names):
                errors.append(
                    f"{function.name}/{block.label}: switch has duplicate targets"
                )
        # Fall-through off the end of the function is invalid.
        if block.falls_through() and function.layout_successor(block.label) is None:
            errors.append(
                f"{function.name}/{block.label}: falls through past the last block"
            )
        # A conditional branch whose taken target equals the fall-through
        # successor would create a duplicate edge.
        if term is not None and term.opcode is Opcode.BR:
            if term.target.name == function.layout_successor(block.label):
                errors.append(
                    f"{function.name}/{block.label}: branch target equals "
                    "fall-through successor (duplicate edge)"
                )

    exits = function.exit_blocks()
    if not exits:
        errors.append(f"function {function.name!r} has no exit (ret) block")
    if require_single_exit and len(exits) > 1:
        errors.append(
            f"function {function.name!r} has {len(exits)} exit blocks; expected one"
        )

    reachable = reachable_blocks(function)
    unreachable = labels - reachable
    if unreachable:
        errors.append(
            f"function {function.name!r} has unreachable blocks: "
            + ", ".join(sorted(unreachable))
        )
    if exits:
        stuck = reachable - blocks_reaching_exit(function)
        if stuck:
            errors.append(
                f"function {function.name!r} has blocks that cannot reach an exit: "
                + ", ".join(sorted(stuck))
            )
    return errors


def verify_function(
    function: Function, require_single_exit: bool = False, collect: bool = False
) -> List[str]:
    """Raise :class:`IRVerificationError` when ``function`` is malformed.

    With ``collect=True`` the full violation list is returned instead of
    raising, so batch consumers (the lint CLI) can
    report every problem in one pass; an empty list means the function is
    valid.  The default raising behavior is unchanged and returns the
    empty list for valid functions.
    """

    errors = collect_function_errors(function, require_single_exit)
    if errors and not collect:
        raise IRVerificationError(errors)
    return errors


def verify_module(
    module: Module, require_single_exit: bool = False, collect: bool = False
) -> List[str]:
    """Verify every function in ``module``; ``collect`` as in :func:`verify_function`."""

    errors: List[str] = []
    for function in module.functions:
        errors.extend(collect_function_errors(function, require_single_exit))
    if errors and not collect:
        raise IRVerificationError(errors)
    return errors
