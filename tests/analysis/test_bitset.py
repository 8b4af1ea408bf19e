"""Differential tests: the packed-bitset analyses against pure-set references.

The mask solver (:func:`repro.analysis.bitset.solve_bit_dataflow`), liveness
and the interference graph must be observationally identical to the
set-based implementations they replaced.  These tests compare them with the
reference solver, liveness and reaching definitions in
``tests/oracles/dataflow.py`` and the interference construction in
``tests/oracles/regalloc.py``, reading masks back through
``register_sets``, and assert set-equality on randomly generated CFGs.
"""

from hypothesis import given

from repro.analysis.bitset import RegisterIndex, solve_bit_dataflow
from repro.analysis.liveness import compute_liveness, live_masks_at_each_instruction
from repro.analysis.session import CompilationSession
from repro.ir.values import vreg
from repro.regalloc.interference import build_interference_graph
from repro.workloads.programs import diamond_function, loop_function

from tests.conftest import generated_procedures
from tests.oracles.dataflow import (
    DataflowProblem,
    block_upward_exposed_uses,
    reaching_definitions,
    reference_live_after,
    reference_liveness,
    register_sets,
    solve_dataflow_reference,
)
from tests.oracles.regalloc import reference_interference


# ---------------------------------------------------------------------------
# RegisterIndex mechanics.
# ---------------------------------------------------------------------------


class TestRegisterIndex:
    def test_interning_is_stable(self):
        index = RegisterIndex()
        a, b = vreg(0), vreg(1)
        assert index.add(a) == 0
        assert index.add(b) == 1
        assert index.add(a) == 0  # repeated interning returns the same bit
        assert index.bit_of(b) == 1
        assert len(index) == 2
        assert a in index and vreg(99) not in index

    def test_mask_roundtrip(self):
        index = RegisterIndex()
        regs = {vreg(i) for i in range(40)}
        mask = index.mask_of(regs)
        assert index.set_of(mask) == regs
        assert set(index.iter_bits(mask)) == regs

    def test_mask_of_empty(self):
        index = RegisterIndex()
        assert index.mask_of([]) == 0
        assert index.set_of(0) == set()

    def test_masks_compose_like_sets(self):
        index = RegisterIndex()
        a = index.mask_of({vreg(0), vreg(1)})
        b = index.mask_of({vreg(1), vreg(2)})
        assert index.set_of(a | b) == {vreg(0), vreg(1), vreg(2)}
        assert index.set_of(a & b) == {vreg(1)}
        assert index.set_of(a & ~b) == {vreg(0)}


# ---------------------------------------------------------------------------
# Solver equivalence.
# ---------------------------------------------------------------------------


def _assert_same_solution(function, problem):
    index = RegisterIndex()
    gen = {label: index.mask_of(facts) for label, facts in problem.gen.items()}
    kill = {label: index.mask_of(facts) for label, facts in problem.kill.items()}
    entering, leaving = solve_bit_dataflow(function, gen, kill, forward=problem.forward)
    slow = solve_dataflow_reference(function, problem)
    assert register_sets(index, entering) == slow.block_in
    assert register_sets(index, leaving) == slow.block_out


def _block_sets(function):
    """Per block, its upward-exposed uses and its definitions."""

    uses, defs = {}, {}
    for block in function.blocks:
        uses[block.label], defs[block.label] = block_upward_exposed_uses(block.instructions)
    return uses, defs


class TestSolverEquivalence:
    def test_forward_union_diamond(self):
        x, y = vreg(0), vreg(1)
        problem = DataflowProblem(
            forward=True, gen={"entry": {x}, "then": {y}}, kill={"merge": {x}}
        )
        _assert_same_solution(diamond_function(), problem)

    def test_backward_union_loop(self):
        inside, after = vreg(0), vreg(1)
        problem = DataflowProblem(
            forward=False,
            gen={"body": {inside}, "exit": {after}},
            kill={"header": {after}},
        )
        _assert_same_solution(loop_function(), problem)

    @given(generated_procedures(max_segments=5))
    def test_liveness_and_definition_problems_on_random_cfgs(self, procedure):
        function = procedure.function
        uses, defs = _block_sets(function)
        _assert_same_solution(function, DataflowProblem(forward=False, gen=uses, kill=defs))
        _assert_same_solution(function, DataflowProblem(forward=True, gen=defs, kill={}))

    @given(generated_procedures(max_segments=5))
    def test_defined_in_is_the_registers_of_reaching_definitions(self, procedure):
        """R001's masks: a register is defined on some path into a block
        exactly when one of its definitions reaches the block."""

        function = procedure.function
        session = CompilationSession(function)
        reaching = reaching_definitions(function)
        assert register_sets(session.liveness.index, session.defined_in) == {
            label: {d[2] for d in facts} for label, facts in reaching.block_in.items()
        }


# ---------------------------------------------------------------------------
# Liveness and interference equivalence on random CFGs.
# ---------------------------------------------------------------------------


class TestLivenessEquivalence:
    @given(generated_procedures(max_segments=5))
    def test_block_liveness_matches_reference(self, procedure):
        function = procedure.function
        fast = compute_liveness(function)
        slow = reference_liveness(function)
        for field in ("live_in", "live_out", "uses", "defs"):
            assert register_sets(fast.index, getattr(fast, field)) == getattr(slow, field), field

    @given(generated_procedures(max_segments=4))
    def test_instruction_liveness_matches_reference(self, procedure):
        function = procedure.function
        fast = compute_liveness(function)
        slow = reference_liveness(function)
        for label in function.block_labels:
            assert register_sets(
                fast.index, live_masks_at_each_instruction(fast, label)
            ) == reference_live_after(function, slow, label), label

    @given(generated_procedures(max_segments=4))
    def test_interference_graph_matches_reference(self, procedure):
        function = procedure.function
        fast = build_interference_graph(function, compute_liveness(function))
        slow = reference_interference(function, reference_liveness(function))
        index = fast.index
        assert register_sets(index, fast.node_mask) == slow.nodes
        assert {(index.fact_at(d), index.fact_at(s)) for d, s in fast.moves} == slow.move_pairs
        for register in slow.nodes:
            neighbours = fast.adjacency[index.bit_of(register)]
            assert register_sets(index, neighbours) == slow.neighbours(register), register
