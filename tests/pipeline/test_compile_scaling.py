"""Compile work per instruction stays flat as procedures grow (no timing).

Every ``Function.cfg()`` call re-validates the cached snapshot against the
terminators of every block.  A per-region or per-edge ``cfg()`` re-fetch in
a hot loop makes that count grow with procedure size squared, so counting
the re-validated blocks per compiled instruction catches it
deterministically, long before a timing benchmark would.
"""

from __future__ import annotations

import pytest

from repro.ir.function import Function
from repro.pipeline.compiler import compile_procedure
from repro.workloads.generator import GeneratorConfig, generate_procedure


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
