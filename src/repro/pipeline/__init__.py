"""End-to-end compilation pipeline: register allocation, spill placement, insertion.

* :mod:`repro.pipeline.passes` — a minimal function-pass manager with timing.
* :mod:`repro.pipeline.compiler` — the driver that takes a function plus a
  profile through register allocation and all three callee-saved placement
  techniques, producing the overhead numbers the evaluation reports
  (:class:`CompileRecord`; :func:`compile_many` is the cached, sharded
  batch driver).
* :mod:`repro.pipeline.timing` — small wall-clock timing helpers.
"""

from repro.pipeline.compiler import (
    CompileRecord,
    CompiledProcedure,
    PlacementOutcome,
    TECHNIQUES,
    TargetSpec,
    compile_many,
    compile_procedure,
)
from repro.pipeline.passes import FunctionPass, PassManager, PassRecord
from repro.pipeline.timing import Stopwatch, describe_timing

__all__ = [
    "CompileRecord",
    "CompiledProcedure",
    "FunctionPass",
    "PassManager",
    "PassRecord",
    "PlacementOutcome",
    "Stopwatch",
    "TECHNIQUES",
    "TargetSpec",
    "compile_many",
    "compile_procedure",
    "describe_timing",
]
