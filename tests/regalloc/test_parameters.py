"""Parameter handling in the allocator: interference and stack overflow.

Two regressions pinned by the frontend's differential battery:

1. parameters have no defining instruction, and the entry ``mov`` copies
   from :func:`isolate_parameters` fall under the move def<->source
   interference exemption — without explicit edges every parameter of a
   multi-argument function coloured to the *same* physical register
   (``gcd(a, b)`` silently became ``gcd(b, b)``);
2. a function with more live-in parameters than the machine has
   caller-saved registers is unallocatable by colouring alone (the
   parameter clique can never fit and spilling a parameter makes no
   progress) — overflow parameters must be passed on the stack instead.
"""

from __future__ import annotations

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Opcode
from repro.ir.values import StackSlot, VirtualRegister
from repro.analysis.liveness import compute_liveness
from repro.profiling.interpreter import Interpreter
from repro.regalloc.allocator import allocate_registers
from repro.regalloc.interference import build_interference_graph
from repro.regalloc.rewriter import demote_overflow_parameters, isolate_parameters
from repro.target.registry import available_targets, get_target


def n_param_function(n, name="subject"):
    """A function whose return value distinguishes every parameter.

    ``p0 + 2*p1 + 4*p2 + ...`` — any aliasing of two parameters changes
    the result for almost all inputs, so the interpreter catches it.
    """

    builder = FunctionBuilder(name)
    params = builder.new_vregs(n)
    builder.function.params = tuple(params)
    builder.block("entry")
    total = params[0]
    for position, param in enumerate(params[1:], start=1):
        scaled = builder.mul(param, 2**position)
        total = builder.add(total, scaled)
    builder.block("exit")
    builder.ret([total])
    return builder.build()


def weighted(args):
    return sum(value * 2**position for position, value in enumerate(args))


class TestParameterInterference:
    def test_parameters_interfere_pairwise(self):
        function = n_param_function(2)
        isolate_parameters(function)
        graph = build_interference_graph(function, compute_liveness(function))
        a, b = function.params
        assert graph.interferes(a, b)

    def test_two_parameters_get_distinct_registers(self):
        machine = get_target("parisc")
        function = n_param_function(2)
        result = allocate_registers(function, machine)
        # Pre-fix both parameters coloured to one register; the allocated
        # function then computed p1 + 2*p1.  After allocation the params
        # tuple holds the physical registers themselves.
        assert len(result.function.params) == 2
        assert len(set(result.function.params)) == 2

    @pytest.mark.parametrize("target", available_targets())
    @pytest.mark.parametrize("arity", (2, 3, 4))
    def test_allocated_function_keeps_every_parameter(self, target, arity):
        machine = get_target(target)
        function = n_param_function(arity)
        result = allocate_registers(function, machine)
        interpreter = Interpreter(machine=machine)
        for args in ([3, 5, 7, 11][:arity], [1, 0, 2, 9][:arity]):
            got = interpreter.run(result.function, args).return_values
            assert got == (weighted(args),), f"{args} on {target}"


class TestIsolateParameters:
    def test_only_instructions_naming_a_parameter_are_rebuilt(self):
        function = n_param_function(2)
        before = {
            label: list(function.block(label).instructions) for label in function.block_labels
        }
        mapping = isolate_parameters(function)
        params = set(mapping)
        for label, originals in before.items():
            after = function.block(label).instructions
            if label == function.entry.label:
                # The parameter copies come first.
                assert [i.opcode for i in after[: len(params)]] == [Opcode.MOV] * len(params)
                after = after[len(params):]
            assert len(after) == len(originals)
            for old, new in zip(originals, after):
                names_param = any(r in params for r in old.registers())
                assert (new is old) is not names_param
                assert not any(r in params for r in new.registers())


class TestOverflowParameters:
    def test_overflow_goes_to_stack_slots(self):
        """tiny has two caller-saved registers; the third and fourth
        parameters must become ``!arg`` stack slots."""

        machine = get_target("tiny")
        function = n_param_function(4)
        isolate_parameters(function)
        slots = demote_overflow_parameters(function, machine)
        assert len(slots) == 2
        stack_params = [p for p in function.params if isinstance(p, StackSlot)]
        register_params = [p for p in function.params
                          if isinstance(p, VirtualRegister)]
        assert len(stack_params) == 2
        assert len(register_params) == 2
        arg_loads = [
            inst
            for inst in function.entry.instructions
            if inst.opcode is Opcode.LOAD and inst.purpose == "arg"
        ]
        assert len(arg_loads) == 2

    def test_no_demotion_when_registers_suffice(self):
        machine = get_target("parisc")
        function = n_param_function(4)
        isolate_parameters(function)
        assert demote_overflow_parameters(function, machine) == {}
        assert all(isinstance(p, VirtualRegister) for p in function.params)

    def test_three_arguments_allocate_on_tiny(self):
        """The original failure: a 3-argument function was stuck
        re-spilling its parameter clique on the 2-caller-saved target."""

        machine = get_target("tiny")
        function = n_param_function(3)
        result = allocate_registers(function, machine)
        interpreter = Interpreter(machine=machine)
        for args in ([1, 2, 3], [10, 0, 5], [0, 0, 0]):
            got = interpreter.run(result.function, args).return_values
            assert got == (weighted(args),)

    def test_parameter_order_is_preserved(self):
        machine = get_target("tiny")
        function = n_param_function(4)
        result = allocate_registers(function, machine)
        # Positional binding still matches the original signature: argument
        # i lands in parameter i whether it travels by register or stack.
        interpreter = Interpreter(machine=machine)
        args = [9, 1, 7, 3]
        assert interpreter.run(result.function, args).return_values == (
            weighted(args),
        )
