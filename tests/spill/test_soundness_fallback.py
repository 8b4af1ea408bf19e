"""The per-register soundness fallback of the placement algorithms.

Shrink-wrapping and the hierarchical algorithm are derived for the CFG
shapes the paper analyses; the scenario space also contains arbitrary
(e.g. irreducible) flowgraphs.  Every placement therefore passes a
per-register convention check, and a register whose derived locations fail
it falls back to the always-valid entry/exit pair — these tests pin both
the check and the fallback wiring down, and that the pipeline's
``verify=True``, which reuses the nets' per-register verdicts, still raises
exactly the verifier's errors.
"""

from __future__ import annotations

import pytest

from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL
from repro.pipeline.compiler import compile_procedure
from repro.regalloc import allocate_registers
from repro.spill.entry_exit import entry_exit_set, place_entry_exit
from repro.spill.hierarchical import place_hierarchical
from repro.spill.model import SaveRestoreSet, SpillKind, SpillLocation
from repro.spill.shrink_wrap import place_shrink_wrap
from repro.spill.verifier import PlacementError, register_sets_are_sound, verify_placement
from repro.workloads.scenarios import build_scenario


@pytest.fixture()
def occupied_diamond(parisc):
    """An allocated function with at least one occupied callee-saved register."""

    procedure = build_scenario("irreducible_loop", seed=0, count=1, machine=parisc)[0]
    allocation = allocate_registers(procedure.function, parisc, procedure.profile)
    assert allocation.usage.used_registers()
    return allocation, procedure.profile


class TestRegisterSetsAreSound:
    def test_entry_exit_set_is_always_sound(self, occupied_diamond):
        allocation, _ = occupied_diamond
        function, usage = allocation.function, allocation.usage
        for register in usage.used_registers():
            assert register_sets_are_sound(
                function,
                register,
                usage.blocks_for(register),
                [entry_exit_set(function, register)],
            )

    def test_restore_without_save_is_unsound(self, occupied_diamond):
        allocation, _ = occupied_diamond
        function, usage = allocation.function, allocation.usage
        register = usage.used_registers()[0]
        bogus = SaveRestoreSet.from_locations(
            register,
            [
                SpillLocation(
                    register, SpillKind.RESTORE, (function.exit.label, EXIT_SENTINEL)
                )
            ],
        )
        assert not register_sets_are_sound(
            function, register, usage.blocks_for(register), [bogus]
        )

    def test_missing_save_before_occupancy_is_unsound(self, occupied_diamond):
        allocation, _ = occupied_diamond
        function, usage = allocation.function, allocation.usage
        register = usage.used_registers()[0]
        assert not register_sets_are_sound(
            function, register, usage.blocks_for(register), []
        )


class TestFallbackWiring:
    def test_shrink_wrap_falls_back_when_edges_are_garbage(
        self, occupied_diamond, monkeypatch
    ):
        import repro.spill.shrink_wrap as shrink_wrap_module

        allocation, _ = occupied_diamond
        function, usage = allocation.function, allocation.usage

        def garbage_edges(*args, **kwargs):
            # A restore with no save on the exit edge: never valid.
            return 0, 1 << function.cfg().placement_edges().exit

        monkeypatch.setattr(shrink_wrap_module, "shrink_wrap_edges", garbage_edges)
        placement = place_shrink_wrap(function, usage)
        assert placement.fallback_registers == usage.used_registers()
        verify_placement(function, usage, placement)
        # The fallback is exactly the entry/exit placement.
        baseline = place_entry_exit(function, usage)
        assert {
            (l.register, l.kind, l.edge) for l in placement.locations()
        } == {(l.register, l.kind, l.edge) for l in baseline.locations()}

    def test_hierarchical_reverts_unsound_hoists_to_initial_sets(
        self, occupied_diamond, monkeypatch
    ):
        from repro.analysis.session import CompilationSession

        allocation, profile = occupied_diamond
        function, usage = allocation.function, allocation.usage

        class BrokenRegion:
            """A fake 'region' whose boundaries are not really SESE."""

            identifier = 99
            is_root = False
            entry_edge = (ENTRY_SENTINEL, function.entry.label)
            exit_edge = (function.entry.label, function.successors(function.entry.label)[0])
            blocks = frozenset(function.block_labels)

        real_pst = CompilationSession.pst

        def broken_pst(session, maximal=True):
            pst = real_pst(session, maximal=maximal)
            original = pst.topological_order

            def order():
                return [BrokenRegion] + [r for r in original() if not r.is_root]

            pst.topological_order = order
            return pst

        # The hierarchical pass reads its PST from the compile's session.
        monkeypatch.setattr(CompilationSession, "pst", broken_pst)
        result = place_hierarchical(function, usage, profile)
        # Whatever the broken traversal produced, the result must verify;
        # any register it broke reverts and is recorded.
        verify_placement(function, usage, result.placement)

    def test_normal_runs_never_fall_back(self, registered_machine):
        for name in ("switch_dispatch", "irreducible_loop", "deep_loop_nest"):
            for procedure in build_scenario(
                name, seed=0, count=2, machine=registered_machine
            ):
                allocation = allocate_registers(
                    procedure.function, registered_machine, procedure.profile
                )
                function, usage = allocation.function, allocation.usage
                for placement in (
                    place_shrink_wrap(function, usage),
                    place_hierarchical(function, usage, procedure.profile).placement,
                ):
                    assert placement.fallback_registers == []
                    verify_placement(function, usage, placement)


class TestVerifyOnce:
    """The pipeline verifies from the per-register verdicts, never less strictly."""

    def test_planted_unsound_set_raises_the_verifier_errors(self, parisc, monkeypatch):
        import repro.pipeline.compiler as compiler_module

        procedure = build_scenario("irreducible_loop", seed=0, count=1, machine=parisc)[0]
        real_place_shrink_wrap = compiler_module.place_shrink_wrap
        planted = []

        def without_a_restore(function, usage, **kwargs):
            placement = real_place_shrink_wrap(function, usage, **kwargs)
            register = usage.used_registers()[0]
            first, *rest = placement.sets_for(register)
            restore = next(l for l in first.locations if l.is_restore())
            kept = SaveRestoreSet.from_locations(
                register, [l for l in first.locations if l != restore]
            )
            placement.replace_sets(register, [kept] + rest)
            planted.append((function, usage, placement))
            return placement

        monkeypatch.setattr(compiler_module, "place_shrink_wrap", without_a_restore)
        with pytest.raises(PlacementError) as from_pipeline:
            compile_procedure(procedure, machine=parisc)
        function, usage, placement = planted[-1]
        with pytest.raises(PlacementError) as from_verifier:
            verify_placement(function, usage, placement)
        assert from_pipeline.value.errors == from_verifier.value.errors
        assert any("missing restore" in error for error in from_pipeline.value.errors)

        compiled = compile_procedure(procedure, machine=parisc, verify=False)
        assert compiled.outcomes["shrinkwrap"].placement is planted[-1][2]
