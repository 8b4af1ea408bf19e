"""Differential tests: mask-based anticipation/availability vs. the reference.

``save_restore_edges`` solves the two boolean data-flow problems as whole-CFG
Jacobi sweeps over integer masks (:func:`repro.spill.shrink_wrap._solve_aa_masks`);
``compute_anticipation_availability`` (``tests/oracles/spill.py``) is the
dict-based Gauss-Seidel reference.
Both iterate monotone equations on a finite lattice from the same initial
assignment, so they must converge to the same unique least fixed point — these
tests assert bit-for-bit agreement on every block, and that the placements
built on top are identical whether or not a pre-derived CFG snapshot is
threaded through.
"""

from hypothesis import given

from repro.analysis.bitset import bit_positions

from repro.regalloc.allocator import allocate_registers
from repro.spill.entry_exit import place_entry_exit
from repro.spill.hierarchical import place_hierarchical
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.shrink_wrap import (
    _solve_aa_masks,
    place_shrink_wrap,
    save_restore_edges,
)
from repro.spill.verifier import verify_placement
from repro.target.parisc import parisc_target
from repro.target.registry import get_target
from repro.workloads.scenarios import build_scenario_suite, scenario_names

from tests.conftest import generated_procedures
from tests.oracles.spill import compute_anticipation_availability


def _allocate(procedure, machine):
    allocation = allocate_registers(procedure.function, machine, procedure.profile)
    return allocation.function, allocation.usage


def _used_block_subsets(function, usage):
    """Occupancy sets that actually occur, plus synthetic corner cases."""

    labels = list(function.block_labels)
    subsets = [usage.blocks_for(register) for register in usage.used_registers()]
    subsets.append(frozenset(labels))
    subsets.append(frozenset(labels[::2]))
    subsets.append(frozenset(labels[: max(1, len(labels) // 2)]))
    subsets.append(frozenset(labels[-1:]))
    return subsets


def _assert_aa_masks_match(function, used_blocks):
    cfg = function.cfg()
    position = cfg.aa_maps()[0]
    used_mask = 0
    for label in used_blocks:
        bit = position.get(label)
        if bit is not None:
            used_mask |= 1 << bit
    ant_in, ant_out, av_in, av_out = _solve_aa_masks(cfg, used_mask)
    reference = compute_anticipation_availability(function, frozenset(used_blocks))
    for label, bit in position.items():
        probe = 1 << bit
        assert bool(ant_in & probe) == reference.ant_in[label], (label, "ant_in")
        assert bool(ant_out & probe) == reference.ant_out[label], (label, "ant_out")
        assert bool(av_in & probe) == reference.av_in[label], (label, "av_in")
        assert bool(av_out & probe) == reference.av_out[label], (label, "av_out")


@given(generated_procedures(max_segments=5))
def test_aa_masks_match_reference_on_random_procedures(procedure):
    function, usage = _allocate(procedure, parisc_target())
    for used_blocks in _used_block_subsets(function, usage):
        _assert_aa_masks_match(function, used_blocks)


def test_aa_masks_match_reference_across_scenario_families():
    for target_name in ("parisc", "micro", "tiny"):
        machine = get_target(target_name)
        suite = build_scenario_suite(seed=5, count=1, machine=machine)
        for name in scenario_names():
            for procedure in suite[name]:
                function, usage = _allocate(procedure, machine)
                for used_blocks in _used_block_subsets(function, usage):
                    _assert_aa_masks_match(function, used_blocks)


def _reference_save_restore_edges(function, used_blocks):
    """Re-derive the save/restore edges from the dict-based AA solution."""

    from repro.ir.function import ENTRY_SENTINEL, EXIT_SENTINEL

    aa = compute_anticipation_availability(function, frozenset(used_blocks))
    saves, restores = set(), set()

    def consider(u, v, key):
        ant_in_v = aa.ant_in[v] if v is not None else False
        av_out_v = aa.av_out[v] if v is not None else False
        ant_in_u = aa.ant_in[u] if u is not None else False
        av_out_u = aa.av_out[u] if u is not None else False
        if ant_in_v and not av_out_u and not ant_in_u:
            saves.add(key)
        if av_out_u and not ant_in_v and not av_out_v:
            restores.add(key)

    entry = function.entry.label
    consider(None, entry, (ENTRY_SENTINEL, entry))
    for edge in function.edges():
        consider(edge.src, edge.dst, edge.key)
    exit_label = function.exit.label
    consider(exit_label, None, (exit_label, EXIT_SENTINEL))
    return saves, restores


@given(generated_procedures(max_segments=5))
def test_save_restore_edges_match_dict_reference(procedure):
    function, usage = _allocate(procedure, parisc_target())
    for used_blocks in _used_block_subsets(function, usage):
        if not used_blocks:
            continue
        saves, restores = save_restore_edges(function, frozenset(used_blocks))
        edges = function.cfg().placement_edges()
        fast = tuple({edges.keys[n] for n in bit_positions(mask)} for mask in (saves, restores))
        assert fast == _reference_save_restore_edges(function, used_blocks)


def test_placements_identical_with_and_without_threaded_cfg():
    """Passing a pre-derived CFG snapshot must never change a placement."""

    for target_name in ("parisc", "micro"):
        machine = get_target(target_name)
        suite = build_scenario_suite(seed=9, count=1, machine=machine)
        for name in scenario_names():
            for procedure in suite[name]:
                function, usage = _allocate(procedure, machine)
                cfg = function.cfg()
                for kwargs in (
                    dict(allow_jump_edges=False, avoid_loops=True),
                    dict(allow_jump_edges=True, avoid_loops=False),
                ):
                    threaded = place_shrink_wrap(function, usage, cfg=cfg, **kwargs)
                    fresh = place_shrink_wrap(function, usage, **kwargs)
                    assert threaded == fresh
                for cost_model in ("jump_edge", "execution_count"):
                    threaded = place_hierarchical(
                        function,
                        usage,
                        procedure.profile,
                        cost_model=cost_model,
                        machine=machine,
                        cfg=cfg,
                    ).placement
                    fresh = place_hierarchical(
                        function,
                        usage,
                        procedure.profile,
                        cost_model=cost_model,
                        machine=machine,
                    ).placement
                    assert threaded == fresh
                    verify_placement(function, usage, threaded, cfg=cfg)
                    with_cfg = placement_dynamic_overhead(
                        function, procedure.profile, threaded, machine, cfg=cfg
                    )
                    without_cfg = placement_dynamic_overhead(
                        function, procedure.profile, threaded, machine
                    )
                    assert with_cfg == without_cfg
                baseline = place_entry_exit(function, usage)
                verify_placement(function, usage, baseline, cfg=cfg)
