"""Placement invariants on every registered target, checked against the exact min cut.

The matrix is every registered target × these procedures: each scenario
family at seeds 0-2 (default counts) plus the two draws that carry the
jump-edge gaps below, each workload-catalog entry at count 1, and each
``tests/workloads/corpus`` fixture — plus the paper's Table 1 suite on
``parisc``.  Every procedure is compiled once under each cost model with
``verify=True`` (so every technique's placement satisfies the callee-saved
convention), and those two compiles feed every check:

* every overhead is finite and non-negative, and no register needed the
  entry/exit soundness fallback;
* Chow's restriction: shrink-wrapping puts nothing on a jump edge;
* the compiles are bit-identical where no cost model is read (allocation,
  entry/exit, shrink-wrapping), and rerunning the hierarchical pass
  reproduces its placement and overhead;
* linting twice gives byte-identical reports and leaves the IR and the
  profile unchanged;
* the paper's optimality claim (Section 4): under the execution-count model
  the hierarchical placement of every register costs exactly the minimum cut
  of ``tests/oracles/placement.py``, whose own placement is valid.  Under the
  jump-edge model (each jump charged unshared) it costs no less than the cut,
  and more only on :data:`JUMP_EDGE_GAPS`.

A failure message carries the procedure's textual IR, ready to be checked
into ``tests/workloads/corpus/`` as a regression fixture.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import pytest

from repro.ir.fingerprint import fingerprint_function
from repro.ir.printer import print_function
from repro.lint import lint_function
from repro.pipeline.compiler import CompiledProcedure, compile_procedure, procedure_parts
from repro.spill.cost_models import make_cost_model, requires_jump_block
from repro.spill.hierarchical import place_hierarchical
from repro.spill.model import SpillPlacement
from repro.spill.overhead import placement_dynamic_overhead
from repro.spill.verifier import verify_placement
from repro.target.registry import available_targets, get_target
from repro.workloads.catalog import get_catalog
from repro.workloads.scenarios import build_scenario, scenario_names
from repro.workloads.spec_like import build_suite

from tests.conftest import CORPUS_FIXTURES, load_corpus_fixture, pyfunc_procedure
from tests.oracles.placement import MinCut, min_cuts

MODELS = ("jump_edge", "execution_count")

#: ``(target, procedure, register) -> (hierarchical, cut)`` under the
#: jump-edge model, rounded to 0.1.  The algorithm divides an initial set's
#: jump among the registers sharing it (``parser_p1``, ``classic_mix_s9_2``),
#: and a region only replaces the sets it contains (``chaos_cfg_s5_2``); the
#: cut charges every jump in full and may use any edge.  See
#: ``docs/paper_mapping.md``, "Optimality against the exact min cut".
JUMP_EDGE_GAPS = {
    ("micro", "chaos_cfg_s5_2", "s1"): (3333.3, 2666.7),
    ("parisc", "chaos_cfg_s5_2", "gr4"): (1666.7, 1333.3),
    ("parisc", "parser_p1", "gr3"): (16541.7, 15316.4),
    ("parisc", "parser_p1", "gr4"): (16541.7, 15316.4),
    ("riscish", "chaos_cfg_s5_2", "r9"): (1666.7, 1333.3),
    ("tiny", "chaos_cfg_s5_2", "s1"): (1666.7, 1333.3),
    ("wide", "chaos_cfg_s5_2", "x33"): (1666.7, 1333.3),
    ("wide", "classic_mix_s9_2", "x35"): (2260.0, 2000.0),
    ("wide", "classic_mix_s9_2", "x37"): (2260.0, 2000.0),
    ("wide", "classic_mix_s9_2", "x38"): (2260.0, 2000.0),
    ("wide", "classic_mix_s9_2", "x39"): (2260.0, 2000.0),
}

#: The scenario draws: every family at seeds 0-2, plus the two gap draws.
DRAWS = tuple((family, seed) for family in scenario_names() for seed in range(3)) + (
    ("chaos_cfg", 5),
    ("classic_mix", 9),
)
CASES = [
    (source, target)
    for source in ("families", "catalog", "corpus")
    for target in available_targets()
]
CASES.append(("table1", "parisc"))


def _procedures(source, machine) -> List:
    if source == "families":
        return [
            procedure
            for family, seed in DRAWS
            for procedure in build_scenario(family, seed=seed, machine=machine)
        ]
    if source == "catalog":
        catalog = get_catalog()
        pyfuncs = catalog.names("pyfunc")
        return [
            pyfunc_procedure(name) if name in pyfuncs else catalog.resolve(name).build(0, 0, machine)
            for name in catalog.names()
        ]
    if source == "corpus":
        return [load_corpus_fixture(name) for name in CORPUS_FIXTURES]
    return [p for b in build_suite(scale=1.0, machine=machine) for p in b.procedures]


def _program(procedure) -> str:
    """The procedure's textual IR, for a failure message."""

    return print_function(procedure_parts(procedure)[0])


def _model_free(compiled: CompiledProcedure) -> bytes:
    """What no cost model reads: the record and placements of all but the hierarchical pass."""

    record = compiled.record
    overheads = tuple(pair for pair in record.overheads if pair[0] != "optimized")
    placements = [str(o.placement) for t, o in compiled.outcomes.items() if t != "optimized"]
    return pickle.dumps((replace(record, overheads=overheads, pass_seconds=()), placements))


@dataclass
class Row:
    """One procedure of the matrix: one compile per cost model, and its cuts."""

    procedure: object
    compiles: Dict[str, CompiledProcedure]
    #: Per model: ``register -> (hierarchical cost, min cut)``.
    cuts: Dict[str, Dict[object, Tuple[float, MinCut]]]

    def where(self, compiled: CompiledProcedure, detail: str) -> str:
        return f"{compiled.name}: {detail}\n{_program(self.procedure)}"


def _row(procedure, machine) -> Row:
    profile = procedure_parts(procedure)[1]
    compiles, cuts = {}, {}
    for name in MODELS:
        model = make_cost_model(name, machine)
        try:
            compiled = compile_procedure(procedure, machine=machine, cost_model=model)
        except Exception as exc:  # noqa: BLE001 - the message carries the program
            pytest.fail(f"[{name}] raised {type(exc).__name__}: {exc}\n{_program(procedure)}")
        allocated = compiled.allocation.function
        placement = compiled.outcomes["optimized"].placement
        cuts[name] = {
            register: (
                sum(model.set_cost(allocated, profile, s) for s in placement.sets_for(register)),
                cut,
            )
            for register, cut in min_cuts(allocated, profile, compiled.usage, model).items()
        }
        compiles[name] = compiled
    return Row(procedure, compiles, cuts)


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def matrix(request):
    """``(machine, rows)`` of one matrix cell; every check below shares its compiles."""

    source, target = request.param
    machine = get_target(target)
    return machine, [_row(procedure, machine) for procedure in _procedures(source, machine)]


def test_overheads_are_finite_and_non_negative(matrix):
    _machine, rows = matrix
    for row in rows:
        for compiled in row.compiles.values():
            overheads = [compiled.allocator_overhead] + [
                compiled.callee_saved_overhead(t) for t in compiled.outcomes
            ]
            assert all(math.isfinite(o) and o >= 0.0 for o in overheads), row.where(
                compiled, f"overheads {overheads!r}"
            )


def test_no_register_needs_the_soundness_fallback(matrix):
    _machine, rows = matrix
    for row in rows:
        for compiled in row.compiles.values():
            for technique, outcome in compiled.outcomes.items():
                fallbacks = outcome.placement.fallback_registers
                assert not fallbacks, row.where(compiled, f"{technique} fell back on {fallbacks}")


def test_shrink_wrap_places_nothing_on_a_jump_edge(matrix):
    _machine, rows = matrix
    for row in rows:
        compiled = row.compiles["jump_edge"]
        function = compiled.allocation.function
        offenders = [
            str(location)
            for location in compiled.outcomes["shrinkwrap"].placement.locations()
            if requires_jump_block(function, location.edge)
        ]
        assert not offenders, row.where(compiled, f"needs a jump block: {offenders}")


def test_compiles_are_bit_identical(matrix):
    """The execution-count compile recompiles everything no cost model reads;
    a rerun of the jump-edge hierarchical pass recomputes the rest."""

    machine, rows = matrix
    model = make_cost_model("jump_edge", machine)
    for row in rows:
        compiled = row.compiles["jump_edge"]
        assert _model_free(row.compiles["execution_count"]) == _model_free(compiled), row.where(
            compiled, "the second compile differs"
        )
        function, profile = compiled.allocation.function, compiled.profile
        rerun = place_hierarchical(function, compiled.usage, profile, cost_model=model).placement
        outcome = compiled.outcomes["optimized"]
        overhead = placement_dynamic_overhead(function, profile, rerun, machine)
        assert (str(rerun), pickle.dumps(overhead)) == (
            str(outcome.placement),
            pickle.dumps(outcome.overhead),
        ), row.where(compiled, "rerunning the hierarchical pass differs")


def test_lint_is_deterministic_and_pure(matrix):
    machine, rows = matrix
    for row in rows:
        function, profile = procedure_parts(row.procedure)
        before = (fingerprint_function(function), pickle.dumps(profile))
        first = lint_function(function, profile=profile, machine=machine)
        second = lint_function(function, profile=profile, machine=machine)
        assert first.canonical_bytes() == second.canonical_bytes(), _program(row.procedure)
        assert (fingerprint_function(function), pickle.dumps(profile)) == before, _program(
            row.procedure
        )


def test_min_cut_placement_is_valid(matrix):
    _machine, rows = matrix
    for row in rows:
        for name, compiled in row.compiles.items():
            placement = SpillPlacement(compiled.name, "min_cut")
            for _hierarchical, cut in row.cuts[name].values():
                placement.add_set(cut.placement)
            verify_placement(compiled.allocation.function, compiled.usage, placement)


def test_execution_count_hierarchical_equals_the_min_cut(matrix):
    _machine, rows = matrix
    for row in rows:
        compiled = row.compiles["execution_count"]
        for register, (hierarchical, cut) in row.cuts["execution_count"].items():
            assert hierarchical == pytest.approx(cut.cost, rel=1e-9), row.where(
                compiled, f"{register.name}: hierarchical {hierarchical!r} vs optimum {cut.cost!r}"
            )


def test_jump_edge_hierarchical_is_the_min_cut_except_the_pinned_gaps(matrix):
    machine, rows = matrix
    gaps, expected = {}, {}
    for row in rows:
        compiled = row.compiles["jump_edge"]
        for register, (hierarchical, cut) in row.cuts["jump_edge"].items():
            key = (machine.name, compiled.name, register.name)
            assert hierarchical >= cut.cost * (1 - 1e-9), row.where(
                compiled, f"{register.name}: hierarchical {hierarchical!r} below the cut {cut.cost!r}"
            )
            if hierarchical != pytest.approx(cut.cost, rel=1e-9):
                gaps[key] = (round(hierarchical, 1), round(cut.cost, 1))
            if key in JUMP_EDGE_GAPS:
                expected[key] = JUMP_EDGE_GAPS[key]
    assert gaps == expected
