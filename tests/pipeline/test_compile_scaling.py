"""Compile work per instruction stays flat as procedures grow (no timing).

Every ``Function.cfg()`` call re-validates the cached snapshot against the
terminators of every block.  A per-region or per-edge ``cfg()`` re-fetch in
a hot loop makes that count grow with procedure size squared, so counting
the re-validated blocks per compiled instruction catches it
deterministically, long before a timing benchmark would.  The same goes for
the callee-saved convention walks: each compile's session checks each
register's candidate sets once, which is counted here too, and for the
``SpillLocation`` objects a compile builds.
"""

from __future__ import annotations

import pytest

from repro.analysis import dominance
from repro.ir.function import Function
from repro.pipeline.compiler import compile_procedure
from repro.spill import verifier
from repro.spill.model import SpillLocation
from repro.workloads.generator import GeneratorConfig, generate_procedure
from repro.workloads.spec_like import build_suite


def revalidated_blocks_per_instruction(monkeypatch, num_segments: int) -> float:
    procedure = generate_procedure(GeneratorConfig(seed=1, num_segments=num_segments))
    checked = [0]
    original = Function._cfg_signature_matches

    def counting(self, signature):
        checked[0] += len(self)
        return original(self, signature)

    with monkeypatch.context() as patch:
        patch.setattr(Function, "_cfg_signature_matches", counting)
        compile_procedure(procedure)
    return checked[0] / procedure.function.instruction_count()


def test_cfg_revalidation_scales_linearly(monkeypatch):
    small = revalidated_blocks_per_instruction(monkeypatch, 24)  # ~300 instructions
    large = revalidated_blocks_per_instruction(monkeypatch, 192)  # ~2.3k instructions
    assert small > 0
    assert large <= 1.5 * small, (
        f"re-validated blocks per instruction grew {large / small:.2f}x "
        f"({small:.1f} -> {large:.1f}); some pass re-fetches function.cfg() "
        "per region or per edge"
    )


def test_a_compile_revalidates_its_cfg_a_bounded_number_of_times(monkeypatch):
    # The allocator's block counts and the session's one fetch; 2.95 blocks
    # per instruction when every placement query re-fetched the snapshot.
    assert revalidated_blocks_per_instruction(monkeypatch, 24) <= 0.5


def test_each_register_set_list_is_walked_once_per_compile(monkeypatch):
    procedures = [p for benchmark in build_suite() for p in benchmark.procedures]
    original = verifier.walk_register_convention
    walked = []

    def counting(cfg, register, *masks):
        walked.append((register, masks))
        return original(cfg, register, *masks)

    monkeypatch.setattr(verifier, "walk_register_convention", counting)
    total = 0
    for procedure in procedures:
        walked.clear()
        compile_procedure(procedure)
        assert len(set(walked)) == len(walked), procedure.name
        total += len(walked)
    # One walk per (register, placement) was 20.0 per compile.
    assert total / len(procedures) <= 8


def test_a_compile_builds_only_the_locations_its_placements_keep(monkeypatch):
    # Placement runs on edge masks; a SpillLocation is built only for a set
    # some final placement keeps.  Building every candidate and hoisted set
    # made 9263 locations on Table 1 for 5178 kept ones.
    procedures = [p for benchmark in build_suite() for p in benchmark.procedures]
    original = SpillLocation.__init__
    built = [0]

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(SpillLocation, "__init__", counting)
    for procedure in procedures:
        built[0] = 0
        compiled = compile_procedure(procedure)
        kept = sum(
            outcome.placement.num_locations() + 2 * len(outcome.placement.fallback_registers)
            for outcome in compiled.outcomes.values()
        )
        assert built[0] <= kept, procedure.name


@pytest.mark.parametrize(
    "techniques, solves",
    [(("baseline",), 0), (("baseline", "shrinkwrap"), 1), (("baseline", "optimized"), 2),
     (("baseline", "shrinkwrap", "optimized"), 2)],
)
def test_a_compile_solves_dominance_only_for_the_techniques_that_read_it(
    monkeypatch, techniques, solves
):
    # Chow's loop avoidance needs the dominator tree; the PST needs both
    # block trees, and its edge-split trees are derived from them unsolved.
    procedure = generate_procedure(GeneratorConfig(seed=1, num_segments=24))
    original = dominance.compute_dominators_of_graph
    count = [0]

    def counting(graph, entry):
        count[0] += 1
        return original(graph, entry)

    monkeypatch.setattr(dominance, "compute_dominators_of_graph", counting)
    compile_procedure(procedure, techniques=techniques)
    assert count[0] == solves
