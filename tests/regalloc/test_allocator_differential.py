"""Differential sweep: the dense-index allocator against the register-keyed one.

``tests/oracles/regalloc.py`` keeps the allocator as it was before its stages
moved onto register bits: ``Register``-keyed live ranges, a set-based
interference graph, colouring over ``Register`` nodes, and callee-saved
occupancy from a second liveness solve of the rewritten function.  The Table 1
and size-ladder workloads allocate every procedure in one round, so they
never exercise spilling; this sweep runs every scenario family and every
catalog entry on three targets, including the register-starved ``tiny``
one, plus generated procedures, and requires exact agreement in everything
the allocator returns.  The catalog's translated Python functions also
carry instructions that read one register twice (``mul t, x, x``).
"""

from hypothesis import given

from repro.ir.printer import format_instruction
from repro.regalloc.allocator import allocate_registers
from repro.target.registry import get_target
from repro.workloads.catalog import get_catalog
from repro.workloads.scenarios import build_scenario_suite, scenario_names

from tests.conftest import generated_procedures
from tests.oracles.regalloc import allocate_registers_reference


TARGETS = ("parisc", "micro", "tiny")


def _printed(function):
    # Block by block: ``print_function`` cannot render the stack-slot
    # parameters that overflow demotion leaves in the signature.
    return [(b.label, [format_instruction(i) for i in b.instructions]) for b in function.blocks]


def _assert_identical(procedure, machine):
    """Allocate both ways; returns the number of rounds."""

    dense = allocate_registers(procedure.function, machine, procedure.profile)
    reference = allocate_registers_reference(procedure.function, machine, procedure.profile)
    assert list(dense.assignment.items()) == list(reference.assignment.items())
    assert dense.spilled_registers == reference.spilled_registers
    assert dense.rounds == reference.rounds
    assert dense.function.params == reference.function.params
    assert _printed(dense.function) == _printed(reference.function)
    # Occupancy: the same registers, blocks and insertion order.
    assert list(dense.usage.occupancy.items()) == list(reference.usage.occupancy.items())
    return dense.rounds


def test_scenario_families_on_every_target_match_the_reference():
    swept = multi_round = 0
    for target_name in TARGETS:
        machine = get_target(target_name)
        suite = build_scenario_suite(seed=3, count=2, machine=machine)
        for name in scenario_names():
            for procedure in suite[name]:
                swept += 1
                multi_round += _assert_identical(procedure, machine) > 1
    assert swept == len(TARGETS) * 2 * len(scenario_names())
    # The sweep must keep exercising the spill path, or it proves nothing
    # about the rounds after the first.
    assert multi_round >= 1


def test_catalog_entries_on_every_target_match_the_reference():
    catalog = get_catalog()
    multi_round = 0
    for target_name in TARGETS:
        machine = get_target(target_name)
        for name in catalog.names():
            procedure = catalog.resolve(name).build(0, 0, machine)
            multi_round += _assert_identical(procedure, machine) > 1
    assert multi_round >= 1


@given(generated_procedures(max_segments=5))
def test_generated_procedures_match_the_reference(procedure):
    for target_name in TARGETS:
        _assert_identical(procedure, get_target(target_name))
