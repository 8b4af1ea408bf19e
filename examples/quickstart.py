#!/usr/bin/env python3
"""Quickstart: build a function, allocate registers, and place callee-saved spill code.

The script walks the full pipeline on a small hand-written procedure:

1. build a function with :class:`repro.ir.FunctionBuilder` (a guarded call
   region plus a loop),
2. derive a flow-conserving profile from branch probabilities,
3. run the Chaitin/Briggs register allocator for the PA-RISC-like target,
4. place callee-saved save/restore code with all three techniques
   (entry/exit, Chow's shrink-wrapping, hierarchical),
5. materialize the best placement and execute the function in the
   interpreter with poisoned callee-saved registers to prove the calling
   convention is preserved,
6. scale up: pull a batch of diverse workloads from the **scenario
   registry** (``repro.workloads.scenarios`` — switch dispatch tables,
   irreducible loops, call webs; see ``docs/workloads.md``) and compile it
   through :func:`repro.pipeline.compiler.compile_many` with ``workers=``
   sharding the batch over a process pool (results are returned in input
   order and are identical to a serial run; suite-level drivers take the
   same ``workers=`` knob — see ``repro.evaluation.run_suite`` and the
   CLI's ``--workers``).

Run with::

    python examples/quickstart.py
"""

from repro.ir import FunctionBuilder
from repro.ir.printer import print_function
from repro.profiling.interpreter import Interpreter, run_with_convention_check
from repro.profiling.synthetic import profile_from_branch_probabilities
from repro.regalloc import allocate_registers
from repro.spill import (
    apply_placement,
    place_entry_exit,
    place_hierarchical,
    place_shrink_wrap,
    placement_dynamic_overhead,
    verify_placement,
)
from repro.target import parisc_target


def build_example_function():
    """A procedure with a rarely-executed call region and a hot loop."""

    builder = FunctionBuilder("quickstart")
    n = builder.new_vreg()

    builder.block("entry")
    builder.const(10, n)
    total = builder.const(0)
    flag = builder.cmp_lt(n, 3)                  # rarely true
    builder.branch(flag, "rare_call")

    builder.block("hot_loop_head")
    i = builder.const(0)
    builder.block("loop")
    cond = builder.cmp_ge(i, n)
    builder.branch(cond, "after_loop")
    builder.block("loop_body")
    builder.add(total, i, total)
    builder.add(i, 1, i)
    builder.jump("loop")

    builder.block("rare_call")
    value = builder.call("expensive_helper", returns_value=True)
    builder.add(total, value, total)
    builder.call("log_helper", args=[value])
    builder.jump("hot_loop_head")

    builder.block("after_loop")
    builder.ret([total])
    return builder.build()


def main() -> None:
    function = build_example_function()
    print("=== input IR ===")
    print(print_function(function))

    # Profile: the rare call region executes on 2% of invocations; the loop
    # iterates ten times per invocation.
    probabilities = {
        ("entry", "rare_call"): 0.02,
        ("loop", "after_loop"): 1.0 / 11.0,
    }
    profile = profile_from_branch_probabilities(function, invocations=1000, probabilities=probabilities)

    machine = parisc_target()
    allocation = allocate_registers(function, machine, profile)
    allocated = allocation.function
    usage = allocation.usage
    print("\n=== register allocation ===")
    print(allocation.describe())
    for register in usage.used_registers():
        print(f"  {register.name} occupied in: {', '.join(sorted(usage.blocks_for(register)))}")

    print("\n=== callee-saved spill placement ===")
    placements = {
        "entry/exit": place_entry_exit(allocated, usage),
        "shrink-wrap": place_shrink_wrap(allocated, usage),
        "hierarchical": place_hierarchical(allocated, usage, profile).placement,
    }
    for name, placement in placements.items():
        verify_placement(allocated, usage, placement)
        overhead = placement_dynamic_overhead(allocated, profile, placement)
        print(f"  {name:12s}: dynamic overhead {overhead.total:8.1f}  ({overhead})")

    # Materialize the hierarchical placement and check the calling convention
    # by executing with poisoned callee-saved registers.
    final = allocated.clone()
    insertion = apply_placement(final, placements["hierarchical"])
    print("\n=== rewritten function (hierarchical placement) ===")
    print(print_function(final))
    print(f"\ninserted {insertion.inserted_saves} saves, {insertion.inserted_restores} restores, "
          f"{insertion.inserted_jumps} jump blocks")

    result = run_with_convention_check(final, machine)
    print(f"interpreter: executed {result.steps} instructions, "
          f"callee-saved registers preserved across the procedure ✔")

    # Scaling up: pull diverse workloads from the scenario registry instead
    # of hand-picking generator configs — each family is deterministic by
    # seed and parameterized to the target's register file — then batch
    # compile with the parallel engine.  `workers=` shards the batch over a
    # process pool at procedure granularity; `workers=1` runs the same path
    # in-process, with identical results.
    import os

    from repro.pipeline.compiler import compile_many
    from repro.workloads import build_scenario

    batch = []
    for family in ("switch_dispatch", "irreducible_loop", "call_web", "classic_mix"):
        batch.extend(build_scenario(family, seed=1, count=2, machine=machine))
    workers = os.cpu_count() or 1
    compiled = compile_many(batch, machine=machine, workers=workers)
    print(f"\n=== batch compile ({len(compiled)} scenario procedures, workers={workers}) ===")
    for item in compiled:
        print(f"  {item.name}: optimized overhead {item.total_overhead('optimized'):8.1f}"
              f"  (baseline {item.total_overhead('baseline'):8.1f})")


if __name__ == "__main__":
    main()
