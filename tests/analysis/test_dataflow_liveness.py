"""Tests for the mask solver, liveness, reaching definitions and loops."""

from hypothesis import given

from repro.analysis.bitset import solve_bit_dataflow
from repro.analysis.liveness import compute_liveness, live_masks_at_each_instruction
from repro.analysis.loops import compute_loop_forest
from repro.analysis.session import CompilationSession
from repro.ir.builder import FunctionBuilder
from repro.ir.values import VirtualRegister, vreg
from repro.workloads.programs import diamond_function, loop_function, paper_example

from tests.conftest import generated_procedures
from tests.oracles.dataflow import reaching_definitions, register_sets


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


def _solve(function, gen, kill=None, forward=True):
    """Solve a one-fact problem: bit 0 stands for the fact."""

    return solve_bit_dataflow(function, gen, kill or {}, forward=forward)


class TestDataflowFramework:
    def test_forward_union_reaches_all_successors(self):
        entering, leaving = _solve(diamond_function(), {"entry": 1})
        assert leaving["entry"] == 1
        assert entering["merge"] == 1

    def test_backward_union_propagates_to_predecessors(self):
        entering, _ = _solve(diamond_function(), {"merge": 1}, forward=False)
        assert entering["entry"] == 1

    def test_kill_removes_incoming_facts(self):
        _, leaving = _solve(diamond_function(), {"entry": 1}, {"then": 1})
        assert leaving["then"] == 0
        assert leaving["else_"] == 1

    def test_loop_reaches_fixed_point(self):
        entering, _ = _solve(loop_function(), {"body": 1})
        assert entering["header"] == 1
        assert entering["exit"] == 1


class TestLiveness:
    def test_loop_counter_is_live_around_the_loop(self):
        function = loop_function()
        liveness = compute_liveness(function)
        live_in = register_sets(liveness.index, liveness.live_in)
        live_out = register_sets(liveness.index, liveness.live_out)
        counter = vreg(0)  # first vreg created: the counter
        assert counter in live_in["header"]
        assert counter in live_out["body"]
        assert counter not in live_in["exit"]

    def test_dead_value_is_not_live_out(self):
        function, a, b = _straightline_two_defs()
        liveness = compute_liveness(function)
        live_out = register_sets(liveness.index, liveness.live_out["entry"])
        assert a not in live_out
        assert b in live_out

    def test_live_masks_shrink_backwards(self):
        function, _a, _b = _straightline_two_defs()
        liveness = compute_liveness(function)
        after = live_masks_at_each_instruction(liveness, "entry")
        assert len(after) == len(function.block("entry").instructions)
        # After the last instruction of entry, only the returned value is live.
        assert after[-1] == liveness.live_out["entry"]

    @given(generated_procedures(max_segments=4))
    def test_live_in_of_entry_contains_only_parameters(self, procedure):
        function = procedure.function
        liveness = compute_liveness(function)
        entry_live = register_sets(liveness.index, liveness.live_in[function.entry.label])
        assert entry_live <= set(function.params)


def _merge_defs():
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
    return builder.build(), x


class TestReaching:
    """The reaching-definitions oracle and the ``defined_in`` masks R001 reads."""

    def test_shadowed_definition_does_not_reach_exit(self):
        function, a, _b = _straightline_two_defs()
        reaching = reaching_definitions(function)
        defs_of_a = {d for d in reaching.block_out["entry"] if d[2] == a}
        assert len(defs_of_a) == 1
        assert next(iter(defs_of_a))[1] == 1  # the second definition (index 1)

    def test_diamond_merges_definitions(self):
        function, x = _merge_defs()
        reaching = reaching_definitions(function)
        defs_reaching_join = {d for d in reaching.block_in["join"] if d[2] == x}
        assert len(defs_reaching_join) == 2

    def test_defined_in_collects_writes_on_some_path(self):
        function, x = _merge_defs()
        session = CompilationSession(function)
        defined = register_sets(session.liveness.index, session.defined_in)
        assert defined["entry"] == set()
        assert x not in defined["then"]
        assert x in defined["join"]


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
