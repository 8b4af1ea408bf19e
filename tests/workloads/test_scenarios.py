"""The scenario registry: determinism, family properties, pipeline coverage."""

from __future__ import annotations

import pytest

from repro.analysis.loops import compute_loop_forest, is_reducible
from repro.ir.fingerprint import fingerprint_function, fingerprint_profile
from repro.ir.instructions import Opcode
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.ir.verifier import verify_function
from repro.pipeline.compiler import compile_many, compile_procedure
from repro.spill.cost_models import requires_jump_block
from repro.spill.hierarchical import place_hierarchical
from repro.spill.insertion import apply_placement
from repro.target.registry import get_target
from repro.workloads.scenarios import (
    SCENARIO_FAMILIES,
    build_scenario,
    build_scenario_suite,
    get_scenario,
    scenario_names,
)


class TestRegistry:
    def test_expected_families_are_registered(self):
        names = scenario_names()
        for required in (
            "switch_dispatch",
            "irreducible_loop",
            "deep_loop_nest",
            "call_web",
            "pressure_sweep",
            "classic_mix",
            "chaos_cfg",
        ):
            assert required in names

    def test_get_scenario_rejects_unknown_name(self):
        with pytest.raises(KeyError):
            get_scenario("no_such_family")

    def test_every_family_produces_verified_single_exit_functions(self):
        for family in SCENARIO_FAMILIES:
            for procedure in family.build(seed=0, count=2):
                verify_function(procedure.function, require_single_exit=True)

    def test_build_scenario_suite_selects_subset(self):
        suite = build_scenario_suite(names=["call_web"], count=1)
        assert list(suite) == ["call_web"]
        assert len(suite["call_web"]) == 1


class TestDeterminism:
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_seed_same_fingerprints(self, name):
        first = build_scenario(name, seed=11, count=2)
        second = build_scenario(name, seed=11, count=2)
        assert [fingerprint_function(p.function) for p in first] == [
            fingerprint_function(p.function) for p in second
        ]
        assert [fingerprint_profile(p.profile) for p in first] == [
            fingerprint_profile(p.profile) for p in second
        ]

    def test_different_seeds_differ_somewhere(self):
        a = build_scenario("chaos_cfg", seed=0, count=3)
        b = build_scenario("chaos_cfg", seed=1, count=3)
        assert [fingerprint_function(p.function) for p in a] != [
            fingerprint_function(p.function) for p in b
        ]

    @pytest.mark.parametrize("name", scenario_names())
    def test_round_trip_preserves_fingerprints(self, name):
        for procedure in build_scenario(name, seed=2, count=2):
            text = print_function(procedure.function)
            assert fingerprint_function(parse_function(text)) == fingerprint_function(
                procedure.function
            )


class TestFamilyShapes:
    def test_switch_dispatch_contains_critical_multiway_edges(self):
        for procedure in build_scenario("switch_dispatch", seed=0, count=3):
            function = procedure.function
            switches = [
                block
                for block in function.blocks
                if block.terminator is not None and block.terminator.is_switch()
            ]
            assert len(switches) >= 2
            critical = [
                edge
                for block in switches
                for edge in function.block_out_edges(block.label)
                if requires_jump_block(function, edge.key)
            ]
            assert critical, "every dispatch edge should be critical"

    def test_irreducible_family_is_irreducible_with_occupancy_in_cycle(self, parisc):
        from repro.regalloc import allocate_registers

        for procedure in build_scenario("irreducible_loop", seed=0, count=2, machine=parisc):
            assert not is_reducible(procedure.function)
            allocation = allocate_registers(procedure.function, parisc, procedure.profile)
            assert allocation.usage.used_registers(), "cycle must occupy callee-saved"

    def test_deep_loop_nest_reaches_depth_three(self):
        depths = [
            compute_loop_forest(p.function).max_depth()
            for p in build_scenario("deep_loop_nest", seed=0, count=4)
        ]
        assert max(depths) >= 3

    def test_call_web_occupies_several_callee_saved_registers(self, parisc):
        from repro.regalloc import allocate_registers

        widths = []
        for procedure in build_scenario("call_web", seed=0, count=3, machine=parisc):
            allocation = allocate_registers(procedure.function, parisc, procedure.profile)
            widths.append(len(allocation.usage.used_registers()))
        assert max(widths) >= 2

    def test_pressure_sweep_is_monotone_in_demand(self, parisc):
        from repro.regalloc import allocate_registers

        occupied = []
        for procedure in build_scenario("pressure_sweep", seed=0, count=6, machine=parisc):
            allocation = allocate_registers(procedure.function, parisc, procedure.profile)
            occupied.append(len(allocation.usage.used_registers()))
        assert occupied == sorted(occupied)
        assert occupied[-1] > occupied[0]

    def test_chaos_cfg_draws_switches_and_irreducible_graphs_somewhere(self):
        saw_switch = False
        saw_irreducible = False
        for seed in range(6):
            for procedure in build_scenario("chaos_cfg", seed=seed, count=4):
                instructions = list(procedure.function.instructions())
                saw_switch = saw_switch or any(
                    inst.opcode is Opcode.SWITCH for inst in instructions
                )
                saw_irreducible = saw_irreducible or not is_reducible(procedure.function)
        assert saw_switch
        assert saw_irreducible


class TestPipelineCoverage:
    """The diverse families *provably reach* hierarchical placement."""

    @pytest.mark.parametrize("name", ("switch_dispatch", "irreducible_loop", "chaos_cfg"))
    def test_family_compiles_with_verification_on_every_target(
        self, registered_machine, name
    ):
        for procedure in build_scenario(name, seed=0, count=2, machine=registered_machine):
            compiled = compile_procedure(procedure, machine=registered_machine, verify=True)
            assert "optimized" in compiled.outcomes
            for outcome in compiled.outcomes.values():
                assert outcome.callee_saved_overhead >= 0.0

    def test_switch_dispatch_hierarchical_places_on_multiway_edges(self, parisc):
        """Hierarchical placement actually sinks spill code onto critical
        switch edges and materializes jump blocks there — asserted, not just
        generated."""

        reached = False
        for procedure in build_scenario("switch_dispatch", seed=0, count=4, machine=parisc):
            compiled = compile_procedure(procedure, machine=parisc, verify=True)
            allocated = compiled.allocation.function
            placement = compiled.outcomes["optimized"].placement
            switch_blocks = {
                block.label
                for block in allocated.blocks
                if block.terminator is not None and block.terminator.is_switch()
            }
            on_switch = [
                location
                for location in placement.locations()
                if location.edge[0] in switch_blocks
                and requires_jump_block(allocated, location.edge)
            ]
            if not on_switch:
                continue
            reached = True
            final = allocated.clone()
            insertion = apply_placement(final, placement)
            assert insertion.inserted_jumps > 0
            verify_function(final, require_single_exit=True)
            assert compiled.callee_saved_overhead("optimized") < compiled.callee_saved_overhead(
                "baseline"
            )
        assert reached, "no procedure placed spill code on a critical multiway edge"

    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_verifier_invariants_hold_for_many_seeds(self, parisc, seed):
        """Property: every technique's placement verifies on arbitrary CFGs."""

        for procedure in build_scenario("chaos_cfg", seed=seed, count=4, machine=parisc):
            compile_procedure(procedure, machine=parisc, verify=True)

    def test_warm_cache_runs_stay_bit_identical_on_new_families(self, tmp_path, parisc):
        from repro.cache.store import CompileCache

        procedures = []
        for name in ("switch_dispatch", "irreducible_loop", "chaos_cfg"):
            procedures.extend(build_scenario(name, seed=0, count=2, machine=parisc))
        cache = CompileCache(str(tmp_path))

        cold = compile_many(procedures, machine=parisc, cache=cache)
        warm = compile_many(procedures, machine=parisc, cache=cache)
        assert warm == cold
        assert warm == [compile_procedure(p, machine=parisc).record for p in procedures]
        assert cache.stats.hits >= len(procedures)

    def test_irreducible_family_reaches_hierarchical_with_decisions(self, parisc):
        """The PST traversal runs (and the verifier passes) on irreducible
        control flow — the region machinery is exercised, not skipped."""

        from repro.regalloc import allocate_registers
        from repro.spill.verifier import verify_placement

        for procedure in build_scenario("irreducible_loop", seed=0, count=2, machine=parisc):
            allocation = allocate_registers(procedure.function, parisc, procedure.profile)
            result = place_hierarchical(
                allocation.function, allocation.usage, procedure.profile, machine=parisc
            )
            assert result.pst.region_count() >= 1
            assert result.decisions, "the PST traversal must compare at least one region"
            verify_placement(allocation.function, allocation.usage, result.placement)
