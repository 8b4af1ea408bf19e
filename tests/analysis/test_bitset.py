"""Differential tests: the bitset dataflow fast path against pure-set references.

The bitset solver (:mod:`repro.analysis.bitset`) must be observationally
identical to the original set-based implementations it replaced.  These tests
compare it with reference liveness and interference construction written
directly over ``set`` objects (the seed's algorithms; the generic solver lives
in ``tests/oracles/dataflow.py``, interference in ``tests/oracles/regalloc.py``)
and assert set-equality on randomly generated CFGs.
"""

from hypothesis import given

from repro.analysis.bitset import RegisterIndex
from repro.analysis.dataflow import (
    DataflowProblem,
    Direction,
    Meet,
    solve_dataflow,
)
from repro.analysis.liveness import (
    LivenessInfo,
    block_upward_exposed_uses,
    compute_liveness,
    live_at_each_instruction,
    liveness_dataflow_problem,
)
from repro.analysis.reaching import reaching_dataflow_problem
from repro.ir.values import vreg
from repro.regalloc.interference import build_interference_graph
from repro.workloads.programs import diamond_function, loop_function

from tests.conftest import generated_procedures
from tests.oracles.dataflow import solve_dataflow_reference
from tests.oracles.regalloc import reference_interference, reference_live_after


# ---------------------------------------------------------------------------
# Reference implementations (the seed's pure-set algorithms).
# ---------------------------------------------------------------------------


def reference_liveness(function):
    """Block-level liveness computed with the original set-based solver."""

    problem = liveness_dataflow_problem(function)
    result = solve_dataflow_reference(function, problem)
    return LivenessInfo(
        live_in=result.block_in, live_out=result.block_out,
        uses=problem.gen, defs=problem.kill,
    )


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
# Generic solver equivalence.
# ---------------------------------------------------------------------------


def _assert_same_solution(function, problem):
    fast = solve_dataflow(function, problem)
    slow = solve_dataflow_reference(function, problem)
    for label in function.block_labels:
        assert fast.block_in[label] == slow.block_in[label], label
        assert fast.block_out[label] == slow.block_out[label], label


class TestSolverEquivalence:
    def test_forward_union_diamond(self):
        function = diamond_function()
        problem = DataflowProblem(
            direction=Direction.FORWARD,
            meet=Meet.UNION,
            gen={"entry": {"x"}, "then": {"y"}},
            kill={"merge": {"x"}},
        )
        _assert_same_solution(function, problem)

    def test_forward_intersection_diamond(self):
        function = diamond_function()
        problem = DataflowProblem(
            direction=Direction.FORWARD,
            meet=Meet.INTERSECTION,
            gen={"then": {"x"}, "else_": {"x", "y"}},
            kill={},
        )
        _assert_same_solution(function, problem)

    def test_backward_union_loop(self):
        function = loop_function()
        problem = DataflowProblem(
            direction=Direction.BACKWARD,
            meet=Meet.UNION,
            gen={"body": {"inside"}, "exit": {"after"}},
            kill={"header": {"after"}},
        )
        _assert_same_solution(function, problem)

    def test_boundary_and_initial(self):
        function = diamond_function()
        problem = DataflowProblem(
            direction=Direction.FORWARD,
            meet=Meet.INTERSECTION,
            gen={},
            kill={"then": {"b"}},
            boundary={"a", "b"},
            universe={"a", "b", "c"},
            initial={"c"},
        )
        _assert_same_solution(function, problem)

    @given(generated_procedures(max_segments=5))
    def test_liveness_problem_on_random_cfgs(self, procedure):
        function = procedure.function
        uses, defs = {}, {}
        for block in function.blocks:
            exposed, defined = block_upward_exposed_uses(block.instructions)
            uses[block.label] = exposed
            defs[block.label] = defined
        problem = DataflowProblem(
            direction=Direction.BACKWARD, meet=Meet.UNION, gen=uses, kill=defs
        )
        _assert_same_solution(function, problem)
        # Reaching definitions on the same CFG: a forward union problem with
        # one fact per definition site, far more facts than registers.
        _assert_same_solution(function, reaching_dataflow_problem(function)[0])

    @given(generated_procedures(max_segments=4))
    def test_forward_intersection_on_random_cfgs(self, procedure):
        """Availability-style problem: defs generate, uses kill (arbitrary)."""

        function = procedure.function
        gen, kill = {}, {}
        for block in function.blocks:
            exposed, defined = block_upward_exposed_uses(block.instructions)
            gen[block.label] = defined
            kill[block.label] = exposed - defined
        problem = DataflowProblem(
            direction=Direction.FORWARD, meet=Meet.INTERSECTION, gen=gen, kill=kill
        )
        _assert_same_solution(function, problem)


# ---------------------------------------------------------------------------
# Liveness and interference equivalence on random CFGs.
# ---------------------------------------------------------------------------


class TestLivenessEquivalence:
    @given(generated_procedures(max_segments=5))
    def test_block_liveness_matches_reference(self, procedure):
        function = procedure.function
        fast = compute_liveness(function)
        slow = reference_liveness(function)
        for label in function.block_labels:
            assert fast.live_in[label] == slow.live_in[label], label
            assert fast.live_out[label] == slow.live_out[label], label
            assert fast.uses[label] == slow.uses[label], label
            assert fast.defs[label] == slow.defs[label], label

    @given(generated_procedures(max_segments=4))
    def test_instruction_liveness_matches_reference(self, procedure):
        function = procedure.function
        fast = compute_liveness(function)
        slow = reference_liveness(function)
        for label in function.block_labels:
            assert live_at_each_instruction(function, fast, label) == reference_live_after(
                function, slow, label
            ), label

    @given(generated_procedures(max_segments=4))
    def test_interference_graph_matches_reference(self, procedure):
        function = procedure.function
        fast = build_interference_graph(function, compute_liveness(function))
        slow = reference_interference(function, reference_liveness(function))
        assert fast.nodes == slow.nodes
        assert fast.move_pairs == slow.move_pairs
        for register in fast.nodes:
            assert fast.neighbours(register) == slow.neighbours(register), register

    def test_interference_accepts_hand_built_liveness(self):
        """Consumers may pass a LivenessInfo made of plain sets (bits=None)."""

        function = loop_function()
        slow = reference_liveness(function)
        assert slow.bits is None
        graph = build_interference_graph(function, slow)
        reference = reference_interference(function, reference_liveness(function))
        assert graph.nodes == reference.nodes
        for register in graph.nodes:
            assert graph.neighbours(register) == reference.neighbours(register)
