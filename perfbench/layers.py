"""Per-layer measurement from outside: spans around the program's public calls.

:func:`traced_compile` times one ``compile_procedure`` call and replays the
same sequence of public calls the pipeline makes (allocation, CFG snapshot,
the three placements, verification, overhead accounting) on the same input,
each in its own span.  Every other call replays the sequence first, so that
neither side always runs with the garbage the other left behind.  The pipeline's self time is the traced
compile minus those layer spans.  A second, separate group of spans probes
the analyses nested inside allocation and placement (liveness, loops,
interference, colouring, PST, dominance); they are reported per layer but not
added to the sum, because the mirrored calls already contain them.
"""

from __future__ import annotations

from typing import Dict, Tuple

from perfbench.common import Tracer

#: Layer spans of the mirrored pipeline; they plus ``pipeline.self`` make up
#: the whole of one ``compile_procedure`` call.
MIRROR_LAYERS = (
    "regalloc.allocate",
    "ir.cfg",
    "spill.entry_exit",
    "spill.shrinkwrap",
    "spill.hierarchical",
    "spill.verify",
    "spill.overhead",
)

#: Nested analyses, probed separately (not part of the mirrored sum).
PROBE_LAYERS = (
    "analysis.liveness",
    "analysis.loops",
    "regalloc.live_ranges",
    "regalloc.interference",
    "regalloc.coloring",
    "analysis.pst",
    "analysis.dominance",
)

#: Per-layer metric name → span name it is computed from (µs per instruction).
US_PER_INSTR_METRICS = {
    "ir.cfg_us_per_instr": "ir.cfg",
    "analysis.pst_us_per_instr": "analysis.pst",
    "analysis.dominance_us_per_instr": "analysis.dominance",
    "analysis.liveness_us_per_instr": "analysis.liveness",
    "analysis.loops_us_per_instr": "analysis.loops",
    "regalloc.us_per_instr": "regalloc.allocate",
    "regalloc.interference_us_per_instr": "regalloc.interference",
    "regalloc.coloring_us_per_instr": "regalloc.coloring",
    "spill.entry_exit_us_per_instr": "spill.entry_exit",
    "spill.shrinkwrap_us_per_instr": "spill.shrinkwrap",
    "spill.hierarchical_us_per_instr": "spill.hierarchical",
    "spill.verify_us_per_instr": "spill.verify",
    "spill.overhead_us_per_instr": "spill.overhead",
}


def traced_compile(tracer: Tracer, procedure, machine, rid: str, mirror_first: bool = False):
    """One traced ``compile_procedure`` plus its mirrored layer calls.

    Returns the compiled procedure from the black-box call and that call's
    duration in seconds.
    """

    from repro.pipeline.compiler import compile_procedure

    if mirror_first:
        _mirror(tracer, procedure, machine, rid)
    with tracer.span("pipeline.compile_procedure", rid=rid) as outer:
        compiled = compile_procedure(procedure, machine=machine, cost_model="jump_edge")
    if not mirror_first:
        _mirror(tracer, procedure, machine, rid)
    return compiled, outer["end"] - outer["start"]


def _mirror(tracer: Tracer, procedure, machine, rid: str) -> None:
    """The pipeline's public calls on ``procedure``, then the nested analyses."""

    from repro.analysis.dominance import compute_dominators, compute_postdominators
    from repro.analysis.liveness import compute_liveness
    from repro.analysis.loops import compute_loop_forest
    from repro.analysis.pst import build_pst
    from repro.pipeline.compiler import procedure_parts
    from repro.regalloc.allocator import allocate_registers
    from repro.regalloc.coloring import color_graph
    from repro.regalloc.interference import build_interference_graph
    from repro.regalloc.live_ranges import compute_live_ranges
    from repro.regalloc.rewriter import demote_overflow_parameters, isolate_parameters
    from repro.spill.cost_models import make_cost_model
    from repro.spill.entry_exit import place_entry_exit
    from repro.spill.hierarchical import place_hierarchical
    from repro.spill.overhead import allocator_spill_overhead, placement_dynamic_overhead
    from repro.spill.shrink_wrap import place_shrink_wrap
    from repro.spill.verifier import verify_placement
    from repro.target.registry import resolve_target

    function, profile = procedure_parts(procedure)
    with tracer.span("pipeline.mirror", rid=rid):
        target = resolve_target(machine)
        cost_model = make_cost_model("jump_edge", target)
        with tracer.span("regalloc.allocate", rid=rid):
            allocation = allocate_registers(function, target, profile)
        allocated = allocation.function
        usage = allocation.usage
        with tracer.span("ir.cfg", rid=rid):
            cfg = allocated.cfg()
        with tracer.span("spill.overhead", rid=rid):
            allocator_spill_overhead(allocated, profile, target)
        with tracer.span("spill.entry_exit", rid=rid):
            baseline = place_entry_exit(allocated, usage)
        with tracer.span("spill.verify", rid=rid):
            verify_placement(allocated, usage, baseline, cfg=cfg)
        with tracer.span("spill.overhead", rid=rid):
            placement_dynamic_overhead(allocated, profile, baseline, target, cfg=cfg)
        with tracer.span("spill.shrinkwrap", rid=rid):
            shrinkwrap = place_shrink_wrap(
                allocated, usage, allow_jump_edges=False, avoid_loops=True, cfg=cfg
            )
        with tracer.span("spill.verify", rid=rid):
            verify_placement(allocated, usage, shrinkwrap, cfg=cfg)
        with tracer.span("spill.overhead", rid=rid):
            placement_dynamic_overhead(allocated, profile, shrinkwrap, target, cfg=cfg)
        with tracer.span("spill.hierarchical", rid=rid):
            optimized = place_hierarchical(
                allocated, usage, profile, cost_model=cost_model,
                maximal_regions=True, cfg=cfg,
            ).placement
        with tracer.span("spill.verify", rid=rid):
            verify_placement(allocated, usage, optimized, cfg=cfg)
        with tracer.span("spill.overhead", rid=rid):
            placement_dynamic_overhead(allocated, profile, optimized, target, cfg=cfg)

    with tracer.span("pipeline.probe", rid=rid):
        work = function.clone()
        isolate_parameters(work)
        demote_overflow_parameters(work, target)
        with tracer.span("analysis.liveness", rid=rid):
            compute_liveness(work, machine=target)
        with tracer.span("analysis.loops", rid=rid):
            compute_loop_forest(work)
        with tracer.span("regalloc.live_ranges", rid=rid):
            ranges = compute_live_ranges(work, profile, machine=target)
        with tracer.span("regalloc.interference", rid=rid):
            graph = build_interference_graph(work, ranges.liveness)
        with tracer.span("regalloc.coloring", rid=rid):
            color_graph(graph, ranges, target)
        with tracer.span("analysis.pst", rid=rid):
            build_pst(allocated)
        with tracer.span("analysis.dominance", rid=rid):
            compute_dominators(allocated)
            compute_postdominators(allocated)


def compile_layer_metrics(tracer: Tracer, instructions: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer self time in µs/instruction from the spans of :func:`traced_compile`.

    Returns ``(metrics, check)``; ``check`` holds the traced compile time,
    the whole mirrored sequence and the sum of its layers' self times, all
    in µs/instruction.
    """

    self_times = tracer.self_times()

    def us_per_instr(name: str) -> float:
        return self_times.get(name, 0.0) * 1e6 / instructions

    metrics = {metric: us_per_instr(span) for metric, span in US_PER_INSTR_METRICS.items()}
    compile_us = us_per_instr("pipeline.compile_procedure")
    layers_us = sum(us_per_instr(name) for name in MIRROR_LAYERS)
    metrics["pipeline.self_us_per_instr"] = compile_us - layers_us
    check = {
        "compile_us": compile_us,
        "mirror_us": tracer.totals().get("pipeline.mirror", (0, 0.0))[1] * 1e6 / instructions,
        "layers_us": layers_us,
    }
    return metrics, check
