"""Hierarchical placement must not depend on the string-hash seed.

A save/restore set keeps its locations in a frozenset, whose iteration order
follows Python's per-process string hashes.  Summing a set's location costs
in that order made the float total differ in its last bit between
processes: on ``chaos_cfg`` seed 0, procedure 0, the PST root comparison for
``gr3`` came out as "keep the sets" under ``PYTHONHASHSEED=0`` and as a tie,
hoisting them to procedure entry, under ``PYTHONHASHSEED=3``.  Sets are
priced in canonical ``(kind, edge)`` order now.
"""

import os
import subprocess
import sys

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

_SNIPPET = """
from repro.pipeline.compiler import compile_procedure
from repro.spill.hierarchical import place_hierarchical
from repro.target.parisc import parisc_target
from repro.workloads.scenarios import build_scenario

machine = parisc_target()
procedure = build_scenario("chaos_cfg", seed=0, machine=machine)[0]
compiled = compile_procedure(procedure, machine=machine, techniques=("baseline",))
function = compiled.allocation.function
for model in ("execution_count", "jump_edge"):
    result = place_hierarchical(
        function, compiled.usage, procedure.profile, cost_model=model, machine=machine
    )
    print(result.placement.describe())
    for d in result.decisions:
        print(d.region_id, d.register.name, d.contained_sets,
              d.contained_cost.hex(), d.boundary_cost.hex(), d.replaced)
"""


def _trace_under_hash_seed(seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SNIPPET], env=env, capture_output=True, text=True, check=True
    )
    return completed.stdout


def test_chaos_cfg_placement_and_decisions_are_identical_across_hash_seeds():
    first, second = _trace_under_hash_seed(0), _trace_under_hash_seed(3)
    assert "hierarchical[execution_count]" in first
    assert first == second
