#!/usr/bin/env python3
"""Allocator hot-path benchmark: per-phase cold timings and peak allocation.

The harness behind ``BENCH_hotpath.json`` (see ``docs/performance.md``).  It
times the cold compile pipeline end-to-end and broken into its phases on the
deterministic scenario suite — the same workload ``repro-spill profile``
reports on — so regressions in any stage of the mask-native hot path
(liveness bitsets, interference, colouring, spill placement, verification)
show up as a phase-level diff between commits:

* **end_to_end** — ``compile_procedure`` per procedure, serial, no cache;
* **regalloc** — liveness + live ranges + interference + colouring;
* **dataflow** — the bit-liveness solve alone;
* **interference** — the allocation round's instruction scan (live-range
  statistics and interference edges) plus graph construction, on
  precomputed liveness;
* **coloring** — simplify/select on a prebuilt graph;
* **placement** — the three placement techniques plus verification on a
  fixed allocation.

Each phase reports the best-of-``--repeat`` wall time (best-of is the
standard way to suppress scheduler noise on a deterministic workload) and
the suite-wide tracemalloc peak of one cold end-to-end leg.

A **scaling** leg compiles single procedures of growing size — the
generator at 6/24/96/384/768 segments (~100 to ~9k instructions), the
largest seeded ``chaos_cfg`` flowgraph and the largest catalog pyfunc —
and records each one's µs per instruction as the median of three
thread-CPU-time compiles, sampled in interleaved rounds.  It runs first,
before the suite inputs fill the heap.  ``scaling_ratio`` divides the
~9k-instruction figure by the ~300-instruction one; the script exits
non-zero when it exceeds ``MAX_SCALING_RATIO``, because compile cost per
instruction must stay flat as procedures grow.

Run from a checkout::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--seed 0] [--repeat 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

SCHEMA = "repro-spill/bench-hotpath/v2"

#: Generator sizes of the scaling leg; 24 segments is ~300 instructions and
#: 768 is ~9k, the two ends of ``scaling_ratio``.
SCALING_SEGMENTS = (6, 24, 96, 384, 768)
SCALING_SAMPLES = 3
MAX_SCALING_RATIO = 2.0


def _best_of(repeat, fn):
    best = None
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def scaling_leg(seed, machine):
    """µs per instruction of single-procedure compiles across sizes."""

    from repro.pipeline.compiler import compile_procedure
    from repro.workloads.catalog import get_catalog
    from repro.workloads.generator import GeneratorConfig, generate_procedure
    from repro.workloads.scenarios import build_scenario

    def largest(procedures):
        return max(procedures, key=lambda p: p.function.instruction_count())

    cases = [
        (
            f"generator_{segments}",
            generate_procedure(GeneratorConfig(seed=1, num_segments=segments)),
        )
        for segments in SCALING_SEGMENTS
    ]
    cases.append(("chaos_cfg", largest(build_scenario("chaos_cfg", seed=seed, machine=machine))))
    pyfuncs = [entry.build(seed=seed) for entry in get_catalog().entries if entry.kind == "pyfunc"]
    cases.append(("pyfunc", largest(pyfuncs)))

    # Interleave the samples (every case once per round) so a drift in host
    # speed lands on small and large procedures alike.
    samples = {name: [] for name, _procedure in cases}
    for _ in range(SCALING_SAMPLES):
        for name, procedure in cases:
            started = time.thread_time()
            compile_procedure(procedure, machine=machine)
            samples[name].append(time.thread_time() - started)

    sizes = []
    for name, procedure in cases:
        instructions = procedure.function.instruction_count()
        seconds = statistics.median(samples[name])
        us = seconds / instructions * 1e6
        sizes.append(
            {
                "case": name,
                "procedure": procedure.name,
                "instructions": instructions,
                "median_thread_seconds": round(seconds, 6),
                "us_per_instruction": round(us, 3),
            }
        )
        print(f"{name:>14s}: {instructions:6d} instr  {us:8.1f} us/instr")
    by_case = {entry["case"]: entry for entry in sizes}
    small = by_case[f"generator_{SCALING_SEGMENTS[1]}"]["us_per_instruction"]
    large = by_case[f"generator_{SCALING_SEGMENTS[-1]}"]["us_per_instruction"]
    return {
        "samples": SCALING_SAMPLES,
        "sizes": sizes,
        "scaling_ratio": round(large / small, 3),
        "max_scaling_ratio": MAX_SCALING_RATIO,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target", default="parisc")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_hotpath.json"),
        help="output JSON path (default: BENCH_hotpath.json at the repo root)",
    )
    args = parser.parse_args(argv)

    from repro.analysis.liveness import compute_liveness, liveness_dataflow_problem
    from repro.analysis.dataflow import solve_dataflow
    from repro.pipeline.compiler import compile_procedure
    from repro.regalloc.allocator import allocate_registers
    from repro.regalloc.coloring import color_graph
    from repro.regalloc.interference import build_interference_graph
    from repro.regalloc.live_ranges import compute_live_ranges, scan_instructions
    from repro.spill.entry_exit import place_entry_exit
    from repro.spill.hierarchical import place_hierarchical
    from repro.spill.shrink_wrap import place_shrink_wrap
    from repro.spill.verifier import verify_placement
    from repro.target.registry import get_target
    from repro.workloads.scenarios import build_scenario_suite

    machine = get_target(args.target)
    # First, while the heap is small: the suite inputs built below would
    # otherwise be traversed by every garbage collection the large compiles
    # trigger.
    scaling = scaling_leg(args.seed, machine)
    suite = build_scenario_suite(seed=args.seed, machine=machine)
    procedures = [p for group in suite.values() for p in group]
    instructions = sum(p.function.instruction_count() for p in procedures)

    # Precomputed inputs for the isolated phases (not timed).
    allocations = [
        allocate_registers(p.function, machine, p.profile) for p in procedures
    ]
    range_infos = [
        compute_live_ranges(p.function, p.profile, machine=machine)
        for p in procedures
    ]
    graphs = [
        build_interference_graph(p.function, info.liveness)
        for p, info in zip(procedures, range_infos)
    ]
    problems = [liveness_dataflow_problem(p.function) for p in procedures]

    def end_to_end():
        for procedure in procedures:
            compile_procedure(procedure, machine=machine)

    def regalloc():
        for procedure in procedures:
            allocate_registers(procedure.function, machine, procedure.profile)

    def dataflow():
        for procedure, problem in zip(procedures, problems):
            solve_dataflow(procedure.function, problem)

    def interference():
        for procedure, info in zip(procedures, range_infos):
            function = procedure.function
            scan_instructions(function, info.liveness, dict.fromkeys(function.block_labels, 1.0))
            build_interference_graph(function, info.liveness)

    def coloring():
        for graph, info in zip(graphs, range_infos):
            color_graph(graph, info, machine)

    def placement():
        for procedure, allocation in zip(procedures, allocations):
            function, usage = allocation.function, allocation.usage
            cfg = function.cfg()
            for built in (
                place_entry_exit(function, usage),
                place_shrink_wrap(
                    function, usage, allow_jump_edges=False, avoid_loops=True, cfg=cfg
                ),
                place_hierarchical(
                    function, usage, procedure.profile, machine=machine, cfg=cfg
                ).placement,
            ):
                verify_placement(function, usage, built, cfg=cfg)

    phases = {
        "end_to_end": end_to_end,
        "regalloc": regalloc,
        "dataflow": dataflow,
        "interference": interference,
        "coloring": coloring,
        "placement": placement,
    }
    timings = {}
    for name, fn in phases.items():
        seconds = _best_of(args.repeat, fn)
        timings[name] = {
            "seconds": round(seconds, 6),
            "us_per_instruction": round(seconds / max(1, instructions) * 1e6, 3),
        }
        print(f"{name:>14s}: {seconds * 1000:8.2f} ms")

    tracemalloc.start()
    end_to_end()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    payload = {
        "schema": SCHEMA,
        "seed": args.seed,
        "target": args.target,
        "repeat": args.repeat,
        "procedures": len(procedures),
        "instructions": instructions,
        "phases": timings,
        "tracemalloc_peak_bytes": peak,
        "scaling": scaling,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    print(
        f"hotpath: {len(procedures)} procedures / {instructions} instructions, "
        f"end-to-end {timings['end_to_end']['seconds'] * 1000:.1f} ms, "
        f"peak {peak / 1e6:.1f} MB, scaling ratio {scaling['scaling_ratio']:.2f}"
    )
    if scaling["scaling_ratio"] > MAX_SCALING_RATIO:
        print(
            f"FAIL: compile cost per instruction grew {scaling['scaling_ratio']:.2f}x "
            f"from ~300 to ~9k instructions (limit {MAX_SCALING_RATIO:.1f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
