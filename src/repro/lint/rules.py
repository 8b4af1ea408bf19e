"""The built-in lint rules and the rule registry.

Each rule is a named check with a stable code (``R001``..), a fixed
severity, and a checker that walks one function through the shared
:class:`~repro.analysis.session.CompilationSession` and yields
:class:`~repro.lint.diagnostics.Diagnostic` records.  Rules never mutate
the IR and never depend on iteration order of hash-based containers —
every yielded sequence is derived from layout order or explicitly sorted,
so a report is byte-identical across runs and ``PYTHONHASHSEED`` values.

Rules that need optional inputs declare it: ``needs_profile`` rules are
skipped silently when no profile is supplied, ``needs_machine`` rules
when no target machine is supplied.  The full catalog with examples
lives in ``docs/lint.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Set

from repro.analysis.liveness import live_masks_at_each_instruction
from repro.analysis.session import CompilationSession
from repro.ir.instructions import Opcode
from repro.ir.values import Register
from repro.lint.diagnostics import Diagnostic, Severity

Checker = Callable[[CompilationSession], Iterator[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule: code, name, severity, checker."""

    code: str
    name: str
    severity: Severity
    summary: str
    checker: Checker = field(repr=False)
    needs_profile: bool = False
    needs_machine: bool = False

    def applies(self, ctx: CompilationSession) -> bool:
        """Whether this rule's optional inputs are present on ``ctx``."""

        if self.needs_profile and ctx.profile is None:
            return False
        if self.needs_machine and ctx.machine is None:
            return False
        return True

    def run(self, ctx: CompilationSession) -> List[Diagnostic]:
        """Run the checker and return its findings as a list."""

        return list(self.checker(ctx))


#: Registry of all rules, keyed by code, in registration (= code) order.
RULES: Dict[str, Rule] = {}


def register_rule(
    code: str,
    name: str,
    severity: Severity,
    summary: str,
    needs_profile: bool = False,
    needs_machine: bool = False,
):
    """Class-decorator-style registrar for rule checker functions."""

    def decorate(checker: Checker) -> Checker:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code!r}")
        RULES[code] = Rule(
            code=code,
            name=name,
            severity=severity,
            summary=summary,
            checker=checker,
            needs_profile=needs_profile,
            needs_machine=needs_machine,
        )
        return checker

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, in stable code order."""

    return [RULES[code] for code in sorted(RULES)]


def _diag(rule_code: str, ctx: CompilationSession, message: str, block=None, instruction=None, note=None) -> Diagnostic:
    rule = RULES[rule_code]
    return Diagnostic(
        code=rule.code,
        severity=rule.severity,
        rule=rule.name,
        function=ctx.function.name,
        message=message,
        block=block,
        instruction=instruction,
        note=note,
        block_order=-1 if block is None else ctx.block_order.get(block, -1),
    )


def _sorted_registers(registers: Iterable[Register]) -> List[Register]:
    return sorted(registers, key=str)


# ---------------------------------------------------------------------------
# R001 — uninitialized register reads (registers defined on some path).
# ---------------------------------------------------------------------------


@register_rule(
    "R001",
    "uninitialized-read",
    Severity.ERROR,
    "a register is read with no reaching definition on any path",
)
def check_uninitialized_read(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Flag reads of registers no path from the entry writes (or parameters).

    A register counts as defined at a block's start when some path from
    the entry writes it (the session's ``defined_in`` masks), which is
    exactly when some definition of it reaches there.
    """

    liveness = ctx.liveness
    bit_of = liveness.index.bit_of
    parameters = liveness.index.mask_of(ctx.function.params)
    defined_in = ctx.defined_in
    for block in ctx.function.blocks:
        if block.label not in ctx.reachable:
            continue
        defined = defined_in[block.label] | parameters
        for index, (written, read) in enumerate(liveness.instruction_masks(block.label)):
            if read & ~defined:
                for reg in block.instructions[index].registers_read():
                    if defined >> bit_of(reg) & 1:
                        continue
                    yield _diag(
                        "R001",
                        ctx,
                        f"read of register {reg} with no reaching definition",
                        block=block.label,
                        instruction=index,
                        note="the register is never written on any path from entry "
                        "and is not a parameter",
                    )
            defined |= written


# ---------------------------------------------------------------------------
# R002 — dead stores / unused definitions (liveness).
# ---------------------------------------------------------------------------


@register_rule(
    "R002",
    "dead-definition",
    Severity.WARN,
    "a register definition is never used before being overwritten or dropped",
)
def check_dead_definition(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Flag definitions whose value is dead immediately after the write.

    Calls are exempt: their defs model return values and the call runs for
    its side effects regardless.  Compiler-inserted overhead (spill reloads,
    callee-saved restores) is exempt too — whether overhead is profitable
    is the optimizer's question, not a source-hygiene one.
    """

    liveness = ctx.liveness
    bit_of = liveness.index.bit_of
    for block in ctx.function.blocks:
        if block.label not in ctx.reachable:
            continue
        live_after = live_masks_at_each_instruction(liveness, block.label)
        masks = liveness.instruction_masks(block.label)
        for index, inst in enumerate(block.instructions):
            dead = masks[index][0] & ~live_after[index]
            if not dead or inst.is_call() or inst.is_overhead():
                continue
            for reg in inst.registers_written():
                if dead >> bit_of(reg) & 1:
                    yield _diag(
                        "R002",
                        ctx,
                        f"definition of register {reg} is never used",
                        block=block.label,
                        instruction=index,
                        note="the value is dead immediately after the write",
                    )


# ---------------------------------------------------------------------------
# R003 — unreachable blocks.
# ---------------------------------------------------------------------------


@register_rule(
    "R003",
    "unreachable-block",
    Severity.ERROR,
    "a block is unreachable from the entry block",
)
def check_unreachable_block(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Flag blocks no path from the entry reaches."""

    for block in ctx.function.blocks:
        if block.label not in ctx.reachable:
            yield _diag(
                "R003",
                ctx,
                f"block {block.label!r} is unreachable from the entry block",
                block=block.label,
            )


# ---------------------------------------------------------------------------
# R004 — irreducible control flow.
# ---------------------------------------------------------------------------


@register_rule(
    "R004",
    "irreducible-cfg",
    Severity.WARN,
    "the CFG is irreducible (a back edge targets a non-dominating header)",
)
def check_irreducible_cfg(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Warn when the CFG is irreducible.

    Irreducible flow is legal IR — the pipeline has a verified fallback —
    but it defeats natural-loop-based placement and usually indicates a
    generator bug when it appears outside the chaos scenario families.
    """

    if not ctx.reducible:
        yield _diag(
            "R004",
            ctx,
            "control flow is irreducible: a loop has multiple entry points",
            note="region-based spill placement falls back to single-block "
            "regions on irreducible flow",
        )


# ---------------------------------------------------------------------------
# R005 — critical multiway switch edges.
# ---------------------------------------------------------------------------


@register_rule(
    "R005",
    "critical-switch-edge",
    Severity.INFO,
    "a switch edge targets a block with other predecessors (critical edge)",
)
def check_critical_switch_edge(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Point out switch edges whose target has more than one predecessor.

    These are exactly the critical multiway jump edges where region-based
    spill placement must materialize a jump block to hold edge code.
    """

    preds = ctx.cfg.preds
    for block in ctx.function.blocks:
        if block.label not in ctx.reachable:
            continue
        term = block.instructions[-1] if block.instructions else None
        if term is None or not term.is_switch():
            continue
        seen: Set[str] = set()
        for target in term.targets:
            if target.name in seen:
                continue
            seen.add(target.name)
            pred_count = len(preds.get(target.name, ()))
            if pred_count > 1:
                yield _diag(
                    "R005",
                    ctx,
                    f"switch edge {block.label} -> {target.name} is critical "
                    f"(target has {pred_count} predecessors)",
                    block=block.label,
                    instruction=len(block.instructions) - 1,
                    note="edge spill code here requires a materialized jump block",
                )


# ---------------------------------------------------------------------------
# R006 — degenerate switch.
# ---------------------------------------------------------------------------


@register_rule(
    "R006",
    "degenerate-switch",
    Severity.WARN,
    "a switch dispatches to a single distinct target",
)
def check_degenerate_switch(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Flag switches that always transfer to the same block (should be jmp)."""

    for block in ctx.function.blocks:
        term = block.instructions[-1] if block.instructions else None
        if term is None or not term.is_switch():
            continue
        distinct = {t.name for t in term.targets}
        if len(distinct) == 1:
            yield _diag(
                "R006",
                ctx,
                f"switch in block {block.label!r} always transfers to "
                f"{next(iter(distinct))!r}; use jmp",
                block=block.label,
                instruction=len(block.instructions) - 1,
            )


# ---------------------------------------------------------------------------
# R007 — side-effect-free infinite loops.
# ---------------------------------------------------------------------------


@register_rule(
    "R007",
    "infinite-loop",
    Severity.WARN,
    "reachable blocks cannot reach any exit and perform no side effects",
)
def check_infinite_loop(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Flag reachable regions that spin forever without observable effects.

    A block that is reachable but cannot reach any exit is stuck; when no
    stuck block stores to memory or makes a call, the whole region is a
    side-effect-free infinite loop — dead weight the interpreter would
    never terminate on.
    """

    stuck = ctx.reachable - ctx.reaching_exit
    if not stuck:
        return
    for block in ctx.function.blocks:
        if block.label not in stuck:
            continue
        for inst in block.instructions:
            if inst.is_call() or inst.opcode is Opcode.STORE:
                return  # The region has observable effects; not our business.
    first = min(stuck, key=lambda label: ctx.block_order.get(label, -1))
    members = ", ".join(sorted(stuck))
    yield _diag(
        "R007",
        ctx,
        f"side-effect-free infinite loop: blocks {{{members}}} never reach an exit",
        block=first,
        note="no store or call executes once control enters these blocks",
    )


# ---------------------------------------------------------------------------
# R008 — profile flow conservation (Kirchhoff).
# ---------------------------------------------------------------------------


@register_rule(
    "R008",
    "profile-flow",
    Severity.ERROR,
    "profile edge counts violate flow conservation at some block",
    needs_profile=True,
)
def check_profile_flow(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Run Kirchhoff's law over the profile: flow in equals flow out."""

    for problem in ctx.profile.check_flow_conservation(ctx.function):
        yield _diag(
            "R008",
            ctx,
            f"profile violates flow conservation: {problem}",
            note="placement cost models assume conserved edge flow",
        )


# ---------------------------------------------------------------------------
# R009 — profile / CFG shape mismatch.
# ---------------------------------------------------------------------------


@register_rule(
    "R009",
    "profile-shape",
    Severity.WARN,
    "the profile names a different function or counts edges the CFG lacks",
    needs_profile=True,
)
def check_profile_shape(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Flag stale profiles: wrong function name, or counts on missing edges."""

    profile = ctx.profile
    if profile.function_name != ctx.function.name:
        yield _diag(
            "R009",
            ctx,
            f"profile is for function {profile.function_name!r}, "
            f"not {ctx.function.name!r}",
        )
    cfg_edges = {(e.src, e.dst) for e in ctx.cfg.edges}
    for key in sorted(profile.edge_counts):
        if key not in cfg_edges:
            yield _diag(
                "R009",
                ctx,
                f"profile counts edge {key[0]} -> {key[1]} which is not in the CFG",
                note="the profile was probably recorded against an older "
                "shape of this function",
            )


# ---------------------------------------------------------------------------
# R010 — callee-saved pressure.
# ---------------------------------------------------------------------------


@register_rule(
    "R010",
    "callee-saved-pressure",
    Severity.INFO,
    "more virtual registers live across a call than callee-saved registers",
    needs_machine=True,
)
def check_callee_saved_pressure(ctx: CompilationSession) -> Iterator[Diagnostic]:
    """Estimate callee-saved pressure at call sites.

    A virtual register live across a call must end up in a callee-saved
    register or be spilled around the call; when more values are live
    across a site than the target has callee-saved registers, spill
    traffic there is unavoidable — worth knowing before placement runs.
    """

    budget = ctx.machine.num_callee_saved
    liveness = ctx.liveness
    virtual = liveness.index.virtual_mask
    for block in ctx.function.blocks:
        if block.label not in ctx.reachable:
            continue
        if not any(inst.is_call() for inst in block.instructions):
            continue
        live_after = live_masks_at_each_instruction(liveness, block.label)
        masks = liveness.instruction_masks(block.label)
        for index, inst in enumerate(block.instructions):
            if not inst.is_call():
                continue
            across = live_after[index] & virtual & ~masks[index][0]
            count = across.bit_count()
            if count > budget:
                registers = _sorted_registers(liveness.index.iter_bits(across))
                names = ", ".join(str(r) for r in registers)
                yield _diag(
                    "R010",
                    ctx,
                    f"{count} virtual registers live across call to "
                    f"{inst.target.name if inst.target else '?'} exceed the "
                    f"{budget} callee-saved registers: {names}",
                    block=block.label,
                    instruction=index,
                    note="spill traffic around this call is unavoidable on "
                    f"target {getattr(ctx.machine, 'name', '?')}",
                )
