"""The declarative scenario registry: named workload families.

The SPEC-like suite (:mod:`repro.workloads.spec_like`) reproduces the paper's
evaluation, but its procedures are all built from the same five reducible
archetypes.  The ROADMAP's north star — "as many scenarios as you can
imagine" — needs control-flow *diversity*: multiway branches whose edges are
critical, loops with several entry blocks, deeply nested natural loops,
webs of calls, register-pressure sweeps, and arbitrary seeded chaos.

Each :class:`ScenarioFamily` is a named, deterministic generator: the same
``(family, seed, index, machine)`` always produces the bit-identical
procedure (fingerprints are stable across processes), so a failing test
reproduces from its family and seed and the compile cache works across
sessions.  Families are registered in :data:`SCENARIO_FAMILIES` and
consumed by the tier-1 placement-invariant suite, the documentation
examples and the benchmark suite.

Families and the control-flow situation each one pins down:

``switch_dispatch``
    two dispatcher blocks multiway-branching over a *shared* set of case
    blocks — every switch edge is a critical jump edge, so case-local
    callee-saved occupancy forces spill code onto critical multiway edges
    (jump blocks, the jump-edge cost model's subject);
``irreducible_loop``
    a cycle entered through two different blocks; no natural loop covers it
    and region-based placement must stay sound without loop information;
``deep_loop_nest``
    counted loops nested several levels deep with a call in the innermost
    body — save/restore code must stay out of all of them;
``call_web``
    a dense web of call sites with overlapping call-crossing values, the
    maximum-callee-saved-pressure shape of recursive interpreters;
``pressure_sweep``
    index-parameterized register pressure from "fits in caller-saved" to
    "spills", calibrated against the target's register file;
``classic_mix``
    the original generator archetypes, bridged into the registry so every
    consumer of the registry also covers the paper's shapes;
``chaos_cfg``
    seeded arbitrary flowgraphs mixing branches, switches, jumps and
    fall-throughs — reducible or not — as a differential-testing net.

See ``docs/workloads.md`` for the full catalogue with CFG sketches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.passes import remove_unreachable_blocks
from repro.ir.verifier import collect_function_errors, verify_function
from repro.profiling.profile_data import ProfileError
from repro.profiling.synthetic import profile_from_branch_probabilities
from repro.target.machine import MachineDescription
from repro.workloads.generator import (
    GeneratedProcedure,
    GeneratorConfig,
    config_for_target,
    generate_procedure,
)

EdgeKey = Tuple[str, str]

#: Builder signature: ``(seed, index, machine)`` -> one procedure.
ScenarioBuilder = Callable[[int, int, Optional[MachineDescription]], GeneratedProcedure]


@dataclass(frozen=True)
class ScenarioFamily:
    """One named workload family of the registry.

    ``builder`` is deterministic: identical ``(seed, index, machine)``
    arguments must produce a procedure with an identical fingerprint.
    ``tags`` classify the control flow the family exercises (used by tests
    to select subsets).
    """

    name: str
    description: str
    tags: Tuple[str, ...]
    builder: ScenarioBuilder
    #: How many procedures a default draw of this family holds.
    default_count: int = 4

    def build(
        self,
        seed: int = 0,
        count: Optional[int] = None,
        machine: Optional[MachineDescription] = None,
    ) -> List[GeneratedProcedure]:
        """Build ``count`` procedures (default :attr:`default_count`)."""

        if count is not None and count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        total = self.default_count if count is None else count
        return [self.builder(seed, index, machine) for index in range(total)]


def _metadata_config(name: str, seed: int) -> GeneratorConfig:
    """Name/seed metadata for hand-built procedures.

    The registry's scenario builders are not parameterized by the generator's
    knobs, but downstream consumers expect every :class:`GeneratedProcedure`
    to carry its identity in ``config``.
    """

    return GeneratorConfig(name=name, seed=seed)


def _finish(
    function: Function,
    probabilities: Dict[EdgeKey, float],
    family: str,
    seed: int,
    invocations: float = 1000.0,
) -> GeneratedProcedure:
    """Verify, profile and wrap a hand-built scenario procedure."""

    verify_function(function, require_single_exit=True)
    profile = profile_from_branch_probabilities(
        function, invocations=invocations, probabilities=probabilities
    )
    return GeneratedProcedure(
        function=function,
        profile=profile,
        config=_metadata_config(function.name, seed),
        branch_probabilities=dict(probabilities),
        segments=[family],
    )


def _callee_saved_pressure(
    machine: Optional[MachineDescription], scale: float = 1.0
) -> int:
    """How many call-crossing locals saturate (but don't overload) ``machine``.

    ``scale`` is the catalog's pressure knob (LO/MD/HI map to 0.5/1.0/2.0);
    at the default 1.0 the result is bit-identical to the pre-catalog
    builders, which the trace-pinned fingerprints rely on.
    """

    base = 2 if machine is None else max(1, machine.num_callee_saved // 4)
    return max(1, int(round(base * scale)))


def _occupy_block(builder: FunctionBuilder, rng: random.Random, locals_count: int = 1) -> None:
    """Emit a call-crossing region inside the current block.

    ``v = call(); ...; call(v); use v`` — the locals are live across the
    second call, so the block ends up occupying callee-saved registers
    (the shaded blocks of the paper's figures).  The locals are never
    returned directly, which would force them into caller-saved registers.
    """

    first = builder.call(f"occ{rng.randrange(1_000_000)}", returns_value=True)
    locals_ = [first]
    for offset in range(1, max(1, locals_count)):
        locals_.append(builder.add(first, offset))
    builder.call(f"occ{rng.randrange(1_000_000)}", args=[first])
    for register in locals_:
        builder.add(register, 1)


# ---------------------------------------------------------------------------
# switch_dispatch — critical multiway jump edges.
# ---------------------------------------------------------------------------


def build_switch_dispatch(
    seed: int, index: int, machine: Optional[MachineDescription] = None,
    *, pressure_scale: float = 1.0
) -> GeneratedProcedure:
    """A dispatch loop whose two switches share one set of case blocks.

    Every case block has two predecessors (both dispatchers) and every
    dispatcher has K successors, so each of the ``2*K`` switch edges is a
    *critical multiway jump edge*: spill code placed there must materialize
    a jump block.  One cold case carries callee-saved occupancy, which is
    exactly what pulls save/restore code towards those edges.
    """

    rng = random.Random(f"switch_dispatch/{seed}/{index}")
    cases = rng.randrange(3, 6)
    trips = float(rng.randrange(6, 14))
    locals_count = _callee_saved_pressure(machine, pressure_scale)
    probabilities: Dict[EdgeKey, float] = {}

    builder = FunctionBuilder(f"switch_dispatch_s{seed}_{index}")
    builder.block("entry")
    acc = builder.const(1)
    counter = builder.const(0)

    builder.block("head")
    done = builder.cmp_ge(counter, int(trips))
    builder.branch(done, "done")
    probabilities[("head", "done")] = 1.0 / (trips + 1.0)

    case_labels = [f"case{i}" for i in range(cases)]

    builder.block("pick")
    pick = builder.cmp_lt(acc, 50)
    builder.branch(pick, "disp_b")
    probabilities[("pick", "disp_b")] = 0.5

    # One case is *cold* in both dispatchers (an error/slow path of the
    # dispatch table).  Its callee-saved occupancy is what hierarchical
    # placement can sink onto the critical multiway dispatch edges: the
    # dispatchers run several times per invocation, but the cold case runs
    # far less than once, so saving on its two in-edges beats entry/exit.
    cold_case = rng.randrange(cases)
    hot = (cold_case + 1) % cases
    cold_probability = 0.02

    builder.block("disp_a")
    selector_a = builder.binary(Opcode.REM, acc, cases)
    builder.switch(selector_a, case_labels)
    for position, label in enumerate(case_labels):
        probabilities[("disp_a", label)] = (
            cold_probability
            if position == cold_case
            else (1.0 - cold_probability) / (cases - 1)
        )

    builder.block("disp_b")
    selector_b = builder.binary(Opcode.REM, counter, cases)
    builder.switch(selector_b, case_labels)
    for position, label in enumerate(case_labels):
        if position == cold_case:
            probabilities[("disp_b", label)] = cold_probability
        elif position == hot:
            probabilities[("disp_b", label)] = 0.6
        else:
            probabilities[("disp_b", label)] = (
                (1.0 - 0.6 - cold_probability) / (cases - 2)
                if cases > 2
                else 1.0 - 0.6 - cold_probability
            )
    for position, label in enumerate(case_labels):
        builder.block(label)
        if position == cold_case:
            # The cold case occupies callee-saved registers: hierarchical
            # placement should sink its save/restore towards the (critical,
            # multiway) dispatch edges rather than pay on every invocation.
            _occupy_block(builder, rng, locals_count)
        else:
            builder.add(acc, position + 1, acc)
        builder.add(counter, 1, counter)
        builder.jump("head")

    builder.block("done")
    result = builder.add(acc, counter)
    builder.ret([result])
    return _finish(builder.function, probabilities, "switch_dispatch", seed)


# ---------------------------------------------------------------------------
# irreducible_loop — a cycle with two entry blocks.
# ---------------------------------------------------------------------------


def build_irreducible_loop(
    seed: int, index: int, machine: Optional[MachineDescription] = None,
    *, pressure_scale: float = 1.0
) -> GeneratedProcedure:
    """The classic two-entry loop plus a callee-saved-occupied cycle body.

    ``entry`` branches into either half of an ``A <-> B`` cycle, so neither
    ``A`` nor ``B`` dominates the other — there is no natural-loop back edge
    and :func:`repro.analysis.loops.is_reducible` reports ``False``.  A call
    with a crossing local sits inside the cycle, so callee-saved occupancy
    lives on blocks that no :class:`~repro.analysis.loops.Loop` covers.
    """

    rng = random.Random(f"irreducible_loop/{seed}/{index}")
    locals_count = _callee_saved_pressure(machine, pressure_scale)
    exit_probability = rng.uniform(0.2, 0.4)
    enter_b = rng.uniform(0.3, 0.7)
    probabilities: Dict[EdgeKey, float] = {}

    builder = FunctionBuilder(f"irreducible_loop_s{seed}_{index}")
    builder.block("entry")
    acc = builder.const(rng.randrange(1, 9))
    which = builder.cmp_lt(acc, 5)
    builder.branch(which, "b_half")
    probabilities[("entry", "b_half")] = enter_b

    builder.block("a_half")
    _occupy_block(builder, rng, locals_count)
    builder.add(acc, 3, acc)
    leave = builder.cmp_ge(acc, 40)
    builder.branch(leave, "done")
    probabilities[("a_half", "done")] = exit_probability

    builder.block("b_half")
    builder.add(acc, 1, acc)
    builder.jump("a_half")

    builder.block("done")
    result = builder.add(acc, 1)
    builder.ret([result])
    return _finish(builder.function, probabilities, "irreducible_loop", seed)


# ---------------------------------------------------------------------------
# deep_loop_nest — natural loops nested several levels deep.
# ---------------------------------------------------------------------------


def build_deep_loop_nest(
    seed: int, index: int, machine: Optional[MachineDescription] = None,
    *, pressure_scale: float = 1.0
) -> GeneratedProcedure:
    """Counted loops nested 3–4 deep with a call in the innermost body.

    Chow's loop avoidance and the hierarchical algorithm must both keep the
    save/restore code of the innermost call's crossing locals out of every
    loop level; the loop forest reports the full nesting depth.
    """

    rng = random.Random(f"deep_loop_nest/{seed}/{index}")
    depth = rng.randrange(3, 5)
    trips = [float(rng.randrange(3, 7)) for _ in range(depth)]
    locals_count = _callee_saved_pressure(machine, pressure_scale)
    probabilities: Dict[EdgeKey, float] = {}

    builder = FunctionBuilder(f"deep_loop_nest_s{seed}_{index}")
    builder.block("entry")
    acc = builder.const(0)
    counters = [builder.const(0) for _ in range(depth)]

    # head0 (outermost) .. head{depth-1} (innermost); each inner level gets
    # a preheader that resets its counter on every entry from the outer loop
    # (resetting in the header itself would clobber the count on back edges).
    for level in range(depth):
        if level > 0:
            builder.block(f"pre{level}")
            builder.const(0, counters[level])
        builder.block(f"head{level}")
        done = builder.cmp_ge(counters[level], int(trips[level]))
        after = f"after{level}"
        builder.branch(done, after)
        probabilities[(f"head{level}", after)] = 1.0 / (trips[level] + 1.0)

    builder.block("body")
    _occupy_block(builder, rng, locals_count)
    builder.add(acc, 1, acc)
    builder.add(counters[-1], 1, counters[-1])
    builder.jump(f"head{depth - 1}")

    # Close the nest inside-out: after{level} increments the next-outer
    # counter and jumps back to its header.
    for level in range(depth - 1, 0, -1):
        builder.block(f"after{level}")
        builder.add(counters[level - 1], 1, counters[level - 1])
        builder.jump(f"head{level - 1}")

    builder.block("after0")
    result = builder.add(acc, counters[0])
    builder.ret([result])
    return _finish(builder.function, probabilities, "deep_loop_nest", seed)


# ---------------------------------------------------------------------------
# call_web — overlapping call-crossing values.
# ---------------------------------------------------------------------------


def build_call_web(
    seed: int, index: int, machine: Optional[MachineDescription] = None,
    *, pressure_scale: float = 1.0
) -> GeneratedProcedure:
    """A web of call sites whose results feed later calls.

    ``v1 = f1(); v2 = f2(v1); v3 = f3(v2); ...`` with every ``v_i`` also
    used *after* the last call: at each call site several values are
    simultaneously live across it, demanding as many callee-saved registers
    as the web is wide — the recursive-interpreter shape.
    """

    rng = random.Random(f"call_web/{seed}/{index}")
    width = max(2, _callee_saved_pressure(machine, pressure_scale) * 2)
    calls = rng.randrange(3, 3 + width)
    probabilities: Dict[EdgeKey, float] = {}

    builder = FunctionBuilder(f"call_web_s{seed}_{index}")
    builder.block("entry")
    guard = builder.const(rng.randrange(0, 10))
    taken = builder.cmp_lt(guard, 5)
    builder.branch(taken, "merge")
    probabilities[("entry", "merge")] = 0.5

    builder.block("web")
    values = [builder.call("web0", returns_value=True)]
    for position in range(1, calls):
        argument = values[rng.randrange(len(values))]
        values.append(builder.call(f"web{position}", args=[argument], returns_value=True))
    # Use every web value after the last call so all of them cross it.
    mixed = values[0]
    for value in values[1:]:
        mixed = builder.add(mixed, value)
    builder.add(mixed, 1, mixed)

    builder.block("merge")
    result = builder.const(7)
    builder.ret([result])
    return _finish(builder.function, probabilities, "call_web", seed)


# ---------------------------------------------------------------------------
# pressure_sweep — index-parameterized register pressure.
# ---------------------------------------------------------------------------


def build_pressure_sweep(
    seed: int, index: int, machine: Optional[MachineDescription] = None,
    *, pressure_scale: float = 1.0
) -> GeneratedProcedure:
    """Register pressure swept by procedure index.

    Procedure ``index`` keeps ``index + 1`` values live across a guarded
    cold call region (capped at 1.5× the target's callee-saved file, so the
    top of the sweep provokes allocator spills).  The sweep ties placement
    overhead to occupancy: each step occupies one more callee-saved register.
    """

    rng = random.Random(f"pressure_sweep/{seed}/{index}")
    ceiling = machine.num_callee_saved if machine is not None else 8
    live_values = min(
        max(1, int(round((index + 1) * pressure_scale))),
        max(2, (ceiling * 3) // 2),
    )
    cold_probability = 0.05
    probabilities: Dict[EdgeKey, float] = {}

    builder = FunctionBuilder(f"pressure_sweep_s{seed}_{index}")
    builder.block("entry")
    first = builder.call("seed_value", returns_value=True)
    values = [first]
    for offset in range(1, live_values):
        values.append(builder.add(first, offset))
    guard = builder.cmp_lt(first, 3)
    builder.branch(guard, "merge")
    probabilities[("entry", "merge")] = 1.0 - cold_probability

    builder.block("cold")
    builder.call("cold_helper", args=[values[0]])
    for value in values:
        builder.add(value, 1)
    builder.block("merge")
    mixed = values[0]
    for value in values[1:]:
        mixed = builder.add(mixed, value)
    builder.add(mixed, rng.randrange(1, 5), mixed)
    builder.ret([mixed])
    return _finish(builder.function, probabilities, "pressure_sweep", seed)


# ---------------------------------------------------------------------------
# classic_mix — the original generator archetypes, bridged in.
# ---------------------------------------------------------------------------


def build_classic_mix(
    seed: int, index: int, machine: Optional[MachineDescription] = None,
    *, pressure_scale: float = 1.0
) -> GeneratedProcedure:
    """The paper-era archetype mix via the parameterized generator."""

    config = GeneratorConfig(
        name=f"classic_mix_s{seed}_{index}",
        seed=seed * 1009 + index,
        num_segments=max(1, int(round((4 + index % 4) * pressure_scale))),
    )
    if machine is not None:
        config = config_for_target(machine, config)
    return generate_procedure(config)


# ---------------------------------------------------------------------------
# chaos_cfg — seeded arbitrary flowgraphs.
# ---------------------------------------------------------------------------


def _random_function(
    rng: random.Random, name: str, locals_count: int = 1
) -> Optional[Function]:
    """One attempt at a random CFG; ``None`` when the draw is malformed.

    Terminators are drawn freely (conditional branch, unconditional jump,
    multiway switch, plain fall-through) with targets anywhere in the block
    list, so back edges, cross edges and multi-entry cycles all occur.
    Unreachable blocks are pruned; draws that leave blocks unable to reach
    the exit (or otherwise fail verification) are rejected by the caller.
    """

    body_blocks = rng.randrange(4, 9)
    labels = [f"b{i}" for i in range(body_blocks)] + ["exit"]
    builder = FunctionBuilder(name)

    values = []
    builder.block(labels[0])
    values.append(builder.const(rng.randrange(1, 50)))

    for position, label in enumerate(labels[:-1]):
        if position > 0:
            builder.block(label)
        if rng.random() < 0.35:
            _occupy_block(builder, rng, locals_count)
        else:
            values.append(builder.add(values[-1], rng.randrange(1, 9)))
        other_labels = [l for l in labels if l != label]
        kind = rng.random()
        next_label = labels[position + 1]
        if kind < 0.3:
            # Conditional branch; the taken target must differ from the
            # fall-through successor (duplicate-edge rule).
            candidates = [l for l in other_labels if l != next_label]
            target = rng.choice(candidates)
            condition = builder.cmp_lt(values[-1], rng.randrange(1, 60))
            builder.branch(condition, target)
        elif kind < 0.5:
            width = rng.randrange(2, 4)
            targets = rng.sample(other_labels, min(width, len(other_labels)))
            selector = builder.binary(Opcode.REM, values[-1], len(targets))
            builder.switch(selector, targets)
        elif kind < 0.7:
            builder.jump(rng.choice(other_labels))
        # else: plain fall-through to the next block in layout.

    builder.block("exit")
    builder.ret([values[-1]])
    function = builder.function
    remove_unreachable_blocks(function)
    if collect_function_errors(function, require_single_exit=True):
        return None
    return function


def build_chaos_cfg(
    seed: int, index: int, machine: Optional[MachineDescription] = None,
    *, pressure_scale: float = 1.0
) -> GeneratedProcedure:
    """A seeded arbitrary flowgraph (reducible or not) with a uniform profile.

    Rejected draws (blocks that cannot reach the exit, singular flow
    equations) deterministically advance to the next attempt, so the result
    is still a pure function of ``(seed, index)``.
    """

    for attempt in range(64):
        rng = random.Random(f"chaos_cfg/{seed}/{index}/{attempt}")
        function = _random_function(
            rng, f"chaos_cfg_s{seed}_{index}",
            locals_count=max(1, int(round(pressure_scale))),
        )
        if function is None:
            continue
        try:
            return _finish(function, {}, "chaos_cfg", seed)
        except ProfileError:
            continue
    raise RuntimeError(
        f"chaos_cfg could not draw a valid flowgraph for seed={seed} index={index}"
    )


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

SCENARIO_FAMILIES: Tuple[ScenarioFamily, ...] = (
    ScenarioFamily(
        name="switch_dispatch",
        description="two multiway dispatchers over shared case blocks; "
        "every switch edge is a critical jump edge",
        tags=("switch", "critical-edges", "loop"),
        builder=build_switch_dispatch,
    ),
    ScenarioFamily(
        name="irreducible_loop",
        description="a two-entry cycle (no natural loop) with callee-saved "
        "occupancy inside the cycle",
        tags=("irreducible", "loop"),
        builder=build_irreducible_loop,
    ),
    ScenarioFamily(
        name="deep_loop_nest",
        description="counted loops nested 3-4 deep with a call in the "
        "innermost body",
        tags=("loop", "nesting"),
        builder=build_deep_loop_nest,
    ),
    ScenarioFamily(
        name="call_web",
        description="a web of call sites with overlapping call-crossing "
        "values (maximum callee-saved pressure)",
        tags=("calls", "pressure"),
        builder=build_call_web,
    ),
    ScenarioFamily(
        name="pressure_sweep",
        description="register pressure swept by procedure index, calibrated "
        "to the target's callee-saved file",
        tags=("pressure",),
        builder=build_pressure_sweep,
        default_count=6,
    ),
    ScenarioFamily(
        name="classic_mix",
        description="the original generator archetypes (diamonds, guarded "
        "calls, early exits, loops) bridged into the registry",
        tags=("classic",),
        builder=build_classic_mix,
    ),
    ScenarioFamily(
        name="chaos_cfg",
        description="seeded arbitrary flowgraphs mixing br/jmp/switch/"
        "fall-through, reducible or not",
        tags=("chaos", "switch", "irreducible-sometimes"),
        builder=build_chaos_cfg,
        default_count=6,
    ),
)

_BY_NAME: Dict[str, ScenarioFamily] = {family.name: family for family in SCENARIO_FAMILIES}


def scenario_names() -> Tuple[str, ...]:
    """The registered family names, in registry order."""

    return tuple(family.name for family in SCENARIO_FAMILIES)


def get_scenario(name: str) -> ScenarioFamily:
    """Look up one family by name."""

    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario family {name!r}; expected one of "
            + ", ".join(scenario_names())
        ) from None


def build_scenario(
    name: str,
    seed: int = 0,
    count: Optional[int] = None,
    machine: Optional[MachineDescription] = None,
) -> List[GeneratedProcedure]:
    """Build ``count`` procedures of family ``name`` (deterministic by seed)."""

    return get_scenario(name).build(seed=seed, count=count, machine=machine)


def build_scenario_suite(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    count: Optional[int] = None,
    machine: Optional[MachineDescription] = None,
) -> Dict[str, List[GeneratedProcedure]]:
    """Build every family (or the named subset), keyed by family name."""

    selected = scenario_names() if names is None else tuple(names)
    return {
        name: build_scenario(name, seed=seed, count=count, machine=machine)
        for name in selected
    }
