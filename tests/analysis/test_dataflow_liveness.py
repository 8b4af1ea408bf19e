"""Tests for the data-flow framework, liveness, reaching definitions and loops."""

from hypothesis import given

from repro.analysis.dataflow import DataflowProblem, Direction, Meet, solve_dataflow
from repro.analysis.liveness import compute_liveness, live_at_each_instruction
from repro.analysis.loops import compute_loop_forest
from repro.analysis.reaching import compute_reaching_definitions
from repro.ir.builder import FunctionBuilder
from repro.ir.values import VirtualRegister, vreg
from repro.workloads.programs import diamond_function, loop_function, paper_example

from tests.conftest import generated_procedures


def _straightline_two_defs():
    """Returns (function, shadowed_register, result_register)."""

    builder = FunctionBuilder("two_defs")
    builder.block("entry")
    a = builder.new_vreg()
    builder.const(1, a)
    builder.const(2, a)
    b = builder.add(a, 3)
    builder.block("exit")
    builder.ret([b])
    return builder.build(), a, b


class TestDataflowFramework:
    def test_forward_union_reaches_all_successors(self):
        function = diamond_function()
        problem = DataflowProblem(
            direction=Direction.FORWARD,
            meet=Meet.UNION,
            gen={"entry": {"x"}},
            kill={},
        )
        result = solve_dataflow(function, problem)
        assert "x" in result.leaving("entry")
        assert "x" in result.entering("merge")

    def test_forward_intersection_requires_all_paths(self):
        function = diamond_function()
        problem = DataflowProblem(
            direction=Direction.FORWARD,
            meet=Meet.INTERSECTION,
            gen={"then": {"x"}},
            kill={},
        )
        result = solve_dataflow(function, problem)
        # "x" holds only on the then-path, so it is not available at the merge.
        assert "x" not in result.entering("merge")

    def test_backward_union_propagates_to_predecessors(self):
        function = diamond_function()
        problem = DataflowProblem(
            direction=Direction.BACKWARD,
            meet=Meet.UNION,
            gen={"merge": {"y"}},
            kill={},
        )
        result = solve_dataflow(function, problem)
        assert "y" in result.entering("entry")

    def test_kill_removes_incoming_facts(self):
        function = diamond_function()
        problem = DataflowProblem(
            direction=Direction.FORWARD,
            meet=Meet.UNION,
            gen={"entry": {"x"}},
            kill={"then": {"x"}},
        )
        result = solve_dataflow(function, problem)
        assert "x" not in result.leaving("then")
        assert "x" in result.leaving("else_")

    def test_loop_reaches_fixed_point(self):
        function = loop_function()
        problem = DataflowProblem(
            direction=Direction.FORWARD,
            meet=Meet.UNION,
            gen={"body": {"inside"}},
            kill={},
        )
        result = solve_dataflow(function, problem)
        assert "inside" in result.entering("header")
        assert "inside" in result.entering("exit")


class TestLiveness:
    def test_loop_counter_is_live_around_the_loop(self):
        function = loop_function()
        liveness = compute_liveness(function)
        counter = vreg(0)  # first vreg created: the counter
        assert counter in liveness.live_in["header"]
        assert counter in liveness.live_out["body"]
        assert counter not in liveness.live_in["exit"]

    def test_dead_value_is_not_live_out(self):
        function, a, b = _straightline_two_defs()
        liveness = compute_liveness(function)
        assert a not in liveness.live_out["entry"]
        assert b in liveness.live_out["entry"]

    def test_live_at_each_instruction_shrinks_backwards(self):
        function, _a, _b = _straightline_two_defs()
        liveness = compute_liveness(function)
        after = live_at_each_instruction(function, liveness, "entry")
        assert len(after) == len(function.block("entry").instructions)
        # After the last instruction of entry, only the returned value is live.
        assert after[-1] == liveness.live_out["entry"]

    @given(generated_procedures(max_segments=4))
    def test_live_in_of_entry_contains_only_parameters(self, procedure):
        function = procedure.function
        liveness = compute_liveness(function)
        assert liveness.live_in[function.entry.label] <= set(function.params)


class TestReaching:
    def test_shadowed_definition_does_not_reach_exit(self):
        function, a, _b = _straightline_two_defs()
        reaching = compute_reaching_definitions(function)
        defs_of_a = {d for d in reaching.reach_out["entry"] if d[2] == a}
        assert len(defs_of_a) == 1
        assert next(iter(defs_of_a))[1] == 1  # the second definition (index 1)

    def test_diamond_merges_definitions(self):
        builder = FunctionBuilder("merge_defs")
        cond = builder.new_vreg()
        x = builder.new_vreg()
        builder.block("entry")
        builder.const(1, cond)
        builder.branch(cond, "then")
        builder.block("else_")
        builder.const(10, x)
        builder.jump("join")
        builder.block("then")
        builder.const(20, x)
        builder.block("join")
        builder.ret([x])
        function = builder.build()

        reaching = compute_reaching_definitions(function)
        defs_reaching_join = {d for d in reaching.reach_in["join"] if d[2] == x}
        assert len(defs_reaching_join) == 2


class TestLoops:
    def test_single_loop_detected(self):
        forest = compute_loop_forest(loop_function())
        assert len(forest.loops) == 1
        loop = forest.loops[0]
        assert loop.header == "header"
        assert loop.body == {"header", "body"}
        assert forest.loop_depth("body") == 1
        assert forest.loop_depth("entry") == 0

    def test_paper_example_has_no_loops(self):
        forest = compute_loop_forest(paper_example().function)
        assert forest.loops == []
        assert forest.max_depth() == 0

    def test_nested_loops(self):
        builder = FunctionBuilder("nested")
        cond = builder.new_vreg()
        builder.block("entry")
        builder.const(1, cond)
        builder.block("outer")
        builder.branch(cond, "after")
        builder.block("inner")
        builder.branch(cond, "outer_latch")
        builder.block("inner_body")
        builder.nop()
        builder.jump("inner")
        builder.block("outer_latch")
        builder.jump("outer")
        builder.block("after")
        builder.ret()
        forest = compute_loop_forest(builder.build())
        assert len(forest.loops) == 2
        assert forest.max_depth() == 2
        inner = forest.loop_of_header["inner"]
        outer = forest.loop_of_header["outer"]
        assert inner.parent is outer
        assert outer.contains_loop(inner)
