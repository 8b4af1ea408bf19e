"""Regression corpus: programs the placement invariants surfaced, as parser round-tripped fixtures.

Every ``tests/workloads/corpus/*.ir`` file is a textual-IR program that a
placement-invariant failure surfaced as interesting (a broken or boundary
behaviour at the time it was found).  The tests parse each fixture, check the
parser↔printer round trip preserves its fingerprint, and compile it with
verification on — so the behaviours stay fixed forever, independently of the
scenario generators that originally produced them.
"""

from __future__ import annotations

import pytest

from repro.analysis.loops import is_reducible
from repro.ir.fingerprint import fingerprint_function
from repro.ir.instructions import Opcode
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.ir.verifier import verify_function
from repro.pipeline.compiler import compile_procedure

from tests.conftest import CORPUS_FIXTURES, load_corpus_fixture


@pytest.mark.parametrize("name", CORPUS_FIXTURES)
class TestEveryFixture:
    def test_parses_verifies_and_round_trips(self, name):
        function, _ = load_corpus_fixture(name)
        verify_function(function, require_single_exit=True)
        text = print_function(function)
        assert fingerprint_function(parse_function(text)) == fingerprint_function(
            function
        )

    @pytest.mark.parametrize("target", ("parisc", "tiny"))
    def test_compiles_with_verification(self, name, target):
        function, profile = load_corpus_fixture(name)
        compiled = compile_procedure((function, profile), machine=target, verify=True)
        for technique in ("baseline", "shrinkwrap", "optimized"):
            assert compiled.callee_saved_overhead(technique) >= 0.0

    def test_profile_sidecar_conserves_flow(self, name):
        """Every recorded (or defaulted) profile satisfies Kirchhoff's law —
        the R008 lint rule must never fire on the committed corpus."""

        function, profile = load_corpus_fixture(name)
        assert profile.check_flow_conservation(function) == []

    def test_lint_profile_rules_are_clean(self, name):
        """The profile-shape rules (R008/R009) are silent on the corpus:
        names match and every counted edge exists in the CFG."""

        from repro.lint import lint_function

        function, profile = load_corpus_fixture(name)
        report = lint_function(
            function, profile=profile, select=["R008", "R009"]
        )
        assert report.diagnostics == (), report.render()


class TestFixtureSpecifics:
    def test_jump_blind_execution_count_program(self):
        """The stress find: under the execution-count model the hierarchical
        placement is save/restore-optimal yet its *materialized* total
        (jump blocks included) exceeds entry/exit — the program that
        motivates the jump-edge cost model."""

        function, profile = load_corpus_fixture("jump_blind_execution_count.ir")
        compiled = compile_procedure(
            (function, profile), machine="parisc", cost_model="execution_count"
        )
        optimized = compiled.outcomes["optimized"].overhead
        baseline = compiled.outcomes["baseline"].overhead
        assert (
            optimized.save_count + optimized.restore_count
            <= baseline.save_count + baseline.restore_count + 1e-6
        )
        assert optimized.num_jump_blocks > 0
        assert optimized.total > baseline.total
        # The jump-edge model avoids the trap on the same program.
        with_jump_model = compile_procedure(
            (function, profile), machine="parisc", cost_model="jump_edge"
        )
        assert (
            with_jump_model.outcomes["optimized"].overhead.total
            <= baseline.total + 1e-6
        )

    def test_switch_critical_multiway_program(self):
        function, profile = load_corpus_fixture("switch_critical_multiway.ir")
        switches = [
            block.terminator
            for block in function.blocks
            if block.terminator is not None and block.terminator.is_switch()
        ]
        assert len(switches) == 2
        compiled = compile_procedure((function, profile), machine="parisc")
        assert compiled.callee_saved_overhead("optimized") < compiled.callee_saved_overhead(
            "baseline"
        )

    def test_irreducible_two_entry_program(self):
        function, _ = load_corpus_fixture("irreducible_two_entry.ir")
        assert not is_reducible(function)

    def test_chaos_program_is_irreducible_and_switch_bearing(self):
        function, _ = load_corpus_fixture("chaos_irreducible_switch.ir")
        assert not is_reducible(function)
        assert any(
            inst.opcode is Opcode.SWITCH for inst in function.instructions()
        )
