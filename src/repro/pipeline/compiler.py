"""The evaluation pipeline: allocate registers, place spill code three ways.

This is the programmatic equivalent of the paper's experimental setup: every
procedure is register-allocated exactly once (Chaitin/Briggs graph colouring)
and the resulting allocation — including the allocator's own spill code and
the callee-saved occupancy — is shared by all three placement techniques, so
the only difference between the measured variants is where the callee-saved
save/restore instructions go.

Two result types, one per audience:

* :class:`CompiledProcedure` — everything one in-process compile produced,
  allocated IR and placements included; built only by
  :func:`compile_procedure`, for callers that need the placements.
* :class:`CompileRecord` — the frozen per-compile numbers the paper
  reports (structure counts, allocator overhead, each technique's
  :class:`~repro.spill.overhead.PlacementOverhead`) plus the cold pass
  timings.  It is what crosses every process, disk and wire boundary:
  :func:`compile_many` returns records, pool workers send them back, the
  compile cache stores them, and the suite runner and the compile service
  build their results from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.session import CompilationSession
from repro.cache.store import CacheSpec, resolve_cache
from repro.ir.fingerprint import compile_options_token, procedure_cache_key
from repro.ir.function import Function
from repro.profiling.profile_data import EdgeProfile
from repro.regalloc.allocator import AllocationResult, allocate_registers
from repro.spill.cost_models import CostModel, make_cost_model
from repro.spill.entry_exit import place_entry_exit
from repro.spill.hierarchical import place_hierarchical
from repro.spill.model import CalleeSavedUsage, SpillPlacement
from repro.spill.overhead import (
    PlacementOverhead,
    allocator_spill_overhead,
    placement_dynamic_overhead,
)
from repro.spill.shrink_wrap import place_shrink_wrap
from repro.spill.verifier import verify_placement
from repro.pipeline.timing import Stopwatch
from repro.target.machine import MachineDescription
from repro.target.registry import resolve_target
from repro.workloads.generator import GeneratedProcedure

#: Technique identifiers in the order the paper reports them.
TECHNIQUES = ("baseline", "shrinkwrap", "optimized")

#: A target argument: a machine description, a registered target name, or
#: ``None`` (the default target, the paper's PA-RISC-like machine).
TargetSpec = Union[MachineDescription, str, None]


def procedure_parts(
    procedure: Union[GeneratedProcedure, Tuple[Function, EdgeProfile]]
) -> Tuple[Function, EdgeProfile]:
    """Normalize a procedure argument to its ``(function, profile)`` pair."""

    if isinstance(procedure, GeneratedProcedure):
        return procedure.function, procedure.profile
    function, profile = procedure
    return function, profile


#: Accepted values of the ``lint`` pipeline option (``None`` means off).
LINT_POLICIES = ("strict",)


def _lint_gate(procedures: Sequence, machine, lint: str) -> None:
    """Apply the ``lint`` policy to ``procedures`` before compiling any.

    Raises one :class:`repro.lint.LintError` carrying a report per
    offending procedure.  Imported lazily so that compiles with
    ``lint=None`` never pay for (or depend on) the lint subsystem.
    """

    if lint not in LINT_POLICIES:
        raise ValueError(f"unknown lint policy {lint!r}; expected one of {LINT_POLICIES}")
    from repro.lint import LintError, lint_function

    bad = []
    for procedure in procedures:
        function, profile = procedure_parts(procedure)
        report = lint_function(function, profile=profile, machine=machine)
        if report.has_errors():
            bad.append(report)
    if bad:
        raise LintError(bad)


@dataclass
class PlacementOutcome:
    """One technique's placement and its dynamic overhead for one procedure."""

    technique: str
    placement: SpillPlacement
    overhead: PlacementOverhead

    @property
    def callee_saved_overhead(self) -> float:
        """The technique's total dynamic callee-saved overhead."""

        return self.overhead.total


@dataclass(frozen=True)
class CompileRecord:
    """The outcome of one compile: what the paper measures, plus timings.

    Immutable and free of mutable containers, so one instance can be handed
    out of the cache's in-memory LRU to any number of callers.  Equality
    ignores :attr:`pass_seconds`: two compiles of the same input produce
    equal records however long each took.
    """

    name: str
    num_blocks: int
    num_instructions: int
    #: Allocator spill overhead (identical across techniques).
    allocator_overhead: float
    #: ``(technique, overhead)`` pairs, in the order the techniques ran.
    overheads: Tuple[Tuple[str, PlacementOverhead], ...]
    #: ``(pass, seconds)`` pairs, in the order the passes ran — the cold
    #: compile's timings, also when the record is served from a cache.
    pass_seconds: Tuple[Tuple[str, float], ...] = field(compare=False)

    def overhead(self, technique: str) -> PlacementOverhead:
        """One technique's dynamic overhead breakdown."""

        for name, overhead in self.overheads:
            if name == technique:
                return overhead
        raise KeyError(technique)

    def callee_saved_overhead(self, technique: str) -> float:
        """One technique's callee-saved overhead (allocator spill excluded)."""

        return self.overhead(technique).total

    def total_overhead(self, technique: str) -> float:
        """Allocator spill overhead plus the technique's callee-saved overhead."""

        return self.allocator_overhead + self.callee_saved_overhead(technique)


@dataclass
class CompiledProcedure:
    """Everything one in-process compile produced, placements included."""

    name: str
    allocation: AllocationResult
    profile: EdgeProfile
    usage: CalleeSavedUsage
    outcomes: Dict[str, PlacementOutcome] = field(default_factory=dict)
    allocator_overhead: float = 0.0
    pass_seconds: Dict[str, float] = field(default_factory=dict)

    def total_overhead(self, technique: str) -> float:
        """Allocator spill overhead plus the technique's callee-saved overhead."""

        return self.allocator_overhead + self.outcomes[technique].callee_saved_overhead

    def callee_saved_overhead(self, technique: str) -> float:
        """One technique's callee-saved overhead (allocator spill excluded)."""

        return self.outcomes[technique].callee_saved_overhead

    @property
    def record(self) -> CompileRecord:
        """This compile's :class:`CompileRecord`, derived on demand."""

        function = self.allocation.function
        return CompileRecord(
            name=self.name,
            num_blocks=len(function),
            num_instructions=function.instruction_count(),
            allocator_overhead=self.allocator_overhead,
            overheads=tuple(
                (technique, outcome.overhead) for technique, outcome in self.outcomes.items()
            ),
            pass_seconds=tuple(self.pass_seconds.items()),
        )


def compile_procedure(
    procedure: Union[GeneratedProcedure, Tuple[Function, EdgeProfile]],
    machine: TargetSpec = None,
    cost_model: Union[CostModel, str] = "jump_edge",
    techniques: Sequence[str] = TECHNIQUES,
    verify: bool = True,
    maximal_regions: bool = True,
    lint: Optional[str] = None,
) -> CompiledProcedure:
    """Run the full pipeline on one procedure.

    Parameters
    ----------
    procedure:
        Either a :class:`~repro.workloads.generator.GeneratedProcedure` or a
        ``(function, profile)`` pair.  The function still uses virtual
        registers; it is register-allocated here.
    machine:
        Target machine — a :class:`MachineDescription`, a registered target
        name (``"parisc"``, ``"micro"``, ...), or ``None`` for the paper's
        PA-RISC-like default.
    cost_model:
        Cost model for the hierarchical technique (paper: jump edge).  Given
        by name, it is weighted with ``machine``'s instruction costs.
    verify:
        Check every produced placement against the callee-saved convention,
        raising :class:`~repro.spill.verifier.PlacementError`.  Each
        register's sets are checked once per compile: the verdicts the
        techniques' soundness nets already recorded are reused.
    maximal_regions:
        Passed to the hierarchical algorithm (``False`` only for ablations).
    lint:
        ``None`` (the default) compiles as always — zero cost, nothing
        about the compile changes.  ``"strict"`` lints the procedure first
        and raises :class:`repro.lint.LintError` carrying the structured
        report when any error-severity diagnostic fires.  Linting is a
        pre-compile gate: accepted procedures produce bit-identical
        results and cache keys either way (property-tested).

    Always compiles; :func:`compile_many` is the cached driver.
    """

    function, profile = procedure_parts(procedure)
    machine = resolve_target(machine)
    if lint is not None:
        _lint_gate([procedure], machine, lint)
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, machine)

    stopwatch = Stopwatch()
    with stopwatch.measure("regalloc"):
        allocation = allocate_registers(function, machine, profile)
    allocated = allocation.function
    usage = allocation.usage
    # One session for the whole placement phase: every technique, the
    # verification and the overhead accounting share its CFG snapshot, its
    # analyses and its per-register memos, each computed on first use.
    session = CompilationSession(allocated, profile, machine)

    result = CompiledProcedure(
        name=function.name,
        allocation=allocation,
        profile=profile,
        usage=usage,
        allocator_overhead=allocator_spill_overhead(allocated, profile, machine, session),
    )

    for technique in techniques:
        with stopwatch.measure(technique):
            if technique == "baseline":
                placement = place_entry_exit(allocated, usage, session=session)
            elif technique == "shrinkwrap":
                placement = place_shrink_wrap(
                    allocated, usage, allow_jump_edges=False, avoid_loops=True, session=session
                )
            elif technique == "optimized":
                placement = place_hierarchical(
                    allocated,
                    usage,
                    profile,
                    cost_model=cost_model,
                    maximal_regions=maximal_regions,
                    session=session,
                ).placement
            else:
                raise ValueError(f"unknown technique {technique!r}")
        if verify:
            # Reads the per-register verdicts the soundness nets recorded;
            # only sets no net checked (e.g. the baseline's) are walked here.
            verify_placement(allocated, usage, placement, session=session)
        overhead = placement_dynamic_overhead(
            allocated, profile, placement, machine, cfg=session.cfg
        )
        result.outcomes[technique] = PlacementOutcome(
            technique=technique, placement=placement, overhead=overhead
        )

    result.pass_seconds = dict(stopwatch.durations)
    return result


def compile_many(
    procedures: Iterable[Union[GeneratedProcedure, Tuple[Function, EdgeProfile]]],
    machine: TargetSpec = None,
    cost_model: Union[CostModel, str] = "jump_edge",
    techniques: Sequence[str] = TECHNIQUES,
    verify: bool = True,
    maximal_regions: bool = True,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    lint: Optional[str] = None,
    miss_keys: Optional[Sequence[str]] = None,
) -> List[CompileRecord]:
    """Compile a batch of procedures into one :class:`CompileRecord` each.

    The target is resolved, the cost model instantiated and the technique
    list validated exactly once for the whole batch.  This is the one
    cached, sharded driver: the suite runner, the compile service and the
    benchmark harnesses all compile through it.

    ``cache`` (a :class:`~repro.cache.store.CompileCache` or a directory)
    answers already-compiled procedures *before* the batch is sharded, so
    only misses are compiled; their records are written back afterwards.
    The pipeline is deterministic, so a cached record equals a fresh one;
    its ``pass_seconds`` are those of the original (cold) compile.
    ``miss_keys`` (one cache key per procedure) says the caller has already
    computed the keys and looked every one of them up in ``cache`` without
    a hit: nothing is fingerprinted or looked up again, every procedure
    compiles, and each record is stored under its given key.

    ``workers`` shards the misses over a process pool at procedure
    granularity (``None`` = every available core); records come back in
    input order regardless of worker scheduling.  ``workers=1`` or a single
    miss compiles in-process.

    ``lint="strict"`` gates the whole batch before any compile starts:
    every procedure is linted, and a single :class:`repro.lint.LintError`
    carrying one report per offending procedure is raised when any has
    error-severity findings — all-or-nothing, so a batch never half
    compiles.  ``lint=None`` is zero cost.
    """

    machine = resolve_target(machine)
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, machine)
    unknown = [t for t in techniques if t not in TECHNIQUES]
    if unknown:
        raise ValueError(
            f"unknown technique(s) {unknown!r}; expected a subset of {TECHNIQUES}"
        )
    techniques = tuple(techniques)
    procedures = list(procedures)
    if lint is not None:
        _lint_gate(procedures, machine, lint)

    store = resolve_cache(cache)
    keys: List[Optional[str]] = [None] * len(procedures)
    records: List[Optional[CompileRecord]] = [None] * len(procedures)
    if store is not None and miss_keys is not None:
        if len(miss_keys) != len(procedures):
            raise ValueError(
                f"miss_keys has {len(miss_keys)} keys for {len(procedures)} procedures"
            )
        keys = list(miss_keys)
    elif store is not None:
        token = compile_options_token(
            machine, cost_model, techniques, verify, maximal_regions
        )
        for index, procedure in enumerate(procedures):
            keys[index] = procedure_cache_key(
                *procedure_parts(procedure), token, kind="compile"
            )
            records[index] = store.get(keys[index])
    misses = [index for index, record in enumerate(records) if record is None]

    # Imported lazily: the process pool lives with the evaluation layer,
    # which imports this module at load time.
    from repro.evaluation.parallel import compile_records

    fresh = compile_records(
        [procedures[index] for index in misses],
        machine=machine,
        cost_model=cost_model,
        techniques=techniques,
        verify=verify,
        maximal_regions=maximal_regions,
        workers=workers,
    )
    for index, record in zip(misses, fresh):
        records[index] = record
        if store is not None:
            store.put(keys[index], record)
    return records
