"""Differential semantics: translated IR must return what CPython returns.

Every corpus function is run two ways and all results must agree with
calling the original Python function:

1. raw translated IR through the interpreter,
2. after register allocation *plus* each placement technique's spill code,
   for every ``pyfunc`` catalog entry (every pressure variant) on every
   registered target, with the machine's calling convention active
   (caller-saved clobbering, callee-saved sentinels).
"""

from __future__ import annotations

import random

import pytest

from repro.ir.module import Module
from repro.pipeline.compiler import TECHNIQUES, compile_procedure
from repro.profiling.interpreter import Interpreter
from repro.spill.insertion import apply_placement
from repro.target.registry import available_targets, get_target
from repro.workloads.catalog import corpus_functions, corpus_module, get_catalog
from repro.workloads.catalog.pyfuncs import CORPUS_MODULES

from tests.conftest import pyfunc_procedure

#: Seeded trials per (function, configuration).
TRIALS = 3


def corpus_cases():
    """(module shortname, function name) pairs for the whole corpus."""

    cases = []
    for mod in CORPUS_MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name in corpus_functions(short):
            cases.append((short, name))
    return cases


def pyfunc_entry(short, name):
    """The catalog entry binding this corpus function (MD variant)."""

    catalog = get_catalog()
    for entry_name in catalog.names("pyfunc"):
        entry = catalog.resolve(entry_name)
        if entry.module == short and entry.func == name and entry.pressure == "MD":
            return entry
    raise AssertionError(f"no MD catalog entry for {short}.{name}")


def seeded_args(entry, tag):
    rng = random.Random(f"frontend-semantics-test/{tag}")
    return [entry.draw_inputs(rng) for _ in range(TRIALS)]


def sibling_module(short, root_function):
    """An IR module with the corpus siblings plus ``root_function`` as root."""

    translated = corpus_module(short)
    module = Module(f"test.{short}")
    module.add_function(root_function)
    for sibling in translated.functions.values():
        if sibling.ir_name != root_function.name:
            module.add_function(sibling.function.clone())
    return module


@pytest.mark.parametrize("short,name", corpus_cases())
def test_raw_translation_matches_cpython(short, name):
    python_func = corpus_functions(short)[name]
    translated = corpus_module(short).functions[name]
    entry = pyfunc_entry(short, name)
    root = translated.function.clone()
    module = sibling_module(short, root)
    interpreter = Interpreter(module=module)
    for args in seeded_args(entry, f"raw/{short}.{name}"):
        got = interpreter.run(root, args).return_values
        assert got == (int(python_func(*args)),), f"{short}.{name}{tuple(args)}"


@pytest.mark.parametrize("target", available_targets())
@pytest.mark.parametrize("entry_name", get_catalog().names("pyfunc"))
def test_compiled_translation_matches_cpython(entry_name, target):
    """Allocation + every technique's spill code preserve the semantics of
    every pyfunc catalog entry on every registered target, with
    calling-convention clobbering active."""

    entry = get_catalog().resolve(entry_name)
    python_func = corpus_functions(entry.module)[entry.func]
    machine = get_target(target)
    compiled = compile_procedure(
        pyfunc_procedure(entry_name), machine=machine, techniques=TECHNIQUES, verify=True
    )
    cases = seeded_args(entry, f"compiled/{target}/{entry_name}")
    for technique in TECHNIQUES:
        final = compiled.allocation.function.clone()
        apply_placement(final, compiled.outcomes[technique].placement)
        module = sibling_module(entry.module, final)
        interpreter = Interpreter(module=module, machine=machine)
        for args in cases:
            got = interpreter.run(final, args).return_values
            assert got == (int(python_func(*args)),), (
                f"{entry_name}{tuple(args)} via {technique} on {target}"
            )


def test_corpus_is_large_enough():
    """The acceptance floor: >= 15 corpus functions, >= 5 stdlib-derived."""

    cases = corpus_cases()
    assert len(cases) >= 15
    stdlib = [case for case in cases if case[0] == "stdlib_derived"]
    assert len(stdlib) >= 5
