"""The correctness oracle: a committed expected-results file plus independent checks.

``expected.json`` was recorded once (``python3 perfbench/record_expected.py``)
and is never rewritten by a benchmark run, so a run's outputs are compared
with a fixed reference rather than with another run of the compiler under
test.  Two checks need no reference at all:

* each technique's final code (``apply_placement`` on the allocated
  function) runs under ``run_with_convention_check``, which poisons the
  callee-saved registers and fails if any is not restored.  The compile
  workloads' procedures terminate on any input; scenario programs of the
  service workload may loop forever on arbitrary inputs, so there only the
  pyfunc programs, on their declared input ranges, are run;
* compiled pyfunc entries must also return what CPython returns for the
  same arguments.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Mapping

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

TECHNIQUES = ("baseline", "shrinkwrap", "optimized")


def load_expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def outcome_summary(compiled) -> Dict[str, List[float]]:
    """Per technique: ``[total overhead, static saves, static restores]``."""

    return {
        technique: [
            compiled.total_overhead(technique),
            len(outcome.placement.saves()),
            len(outcome.placement.restores()),
        ]
        for technique, outcome in compiled.outcomes.items()
    }


def result_digest(result: Mapping) -> str:
    """SHA-256 of a service ``result`` payload in canonical JSON."""

    return hashlib.sha256(json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()


def convention_check(compiled, machine) -> List[str]:
    """Run every technique's final code with poisoned callee-saved registers.

    Returns one message per technique whose code breaks the convention.
    """

    from repro.profiling.interpreter import run_with_convention_check
    from repro.spill.insertion import apply_placement

    problems = []
    for technique, outcome in compiled.outcomes.items():
        final = compiled.allocation.function.clone()
        apply_placement(final, outcome.placement)
        try:
            run_with_convention_check(final, machine, args=[1] * len(final.params))
        except Exception as exc:  # noqa: BLE001 - any failure is a finding
            problems.append(f"{compiled.name}/{technique}: {type(exc).__name__}: {exc}")
    return problems


#: Seeded argument draws per pyfunc program and technique.
PYFUNC_TRIALS = 4


def pyfunc_semantics_check(entry, compiled, machine, seed: int) -> List[str]:
    """Run each technique's final code of a pyfunc and compare with CPython.

    The run also poisons the callee-saved registers and checks them on
    return, so it is a convention check on seeded, terminating inputs too.
    """

    from repro.ir.module import Module
    from repro.profiling.interpreter import run_with_convention_check
    from repro.spill.insertion import apply_placement
    from repro.workloads.catalog import corpus_functions, corpus_module

    python_func = corpus_functions(entry.module)[entry.func]
    siblings = corpus_module(entry.module)
    problems = []
    for technique, outcome in compiled.outcomes.items():
        final = compiled.allocation.function.clone()
        apply_placement(final, outcome.placement)
        module = Module(f"perfbench.{entry.name}")
        module.add_function(final)
        for translated in siblings.functions.values():
            if translated.ir_name != final.name:
                module.add_function(translated.function.clone())
        rng = random.Random(f"perfbench/{entry.name}/{seed}")
        for _ in range(PYFUNC_TRIALS):
            args = entry.draw_inputs(rng)
            try:
                got = run_with_convention_check(final, machine, module, args).return_values
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                problems.append(f"{entry.name}/{technique}{args}: {type(exc).__name__}: {exc}")
                continue
            expected = (int(python_func(*args)),)
            if got != expected:
                problems.append(f"{entry.name}/{technique}{args}: got {got}, CPython {expected}")
    return problems
