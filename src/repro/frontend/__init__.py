"""`repro.frontend` — real CPython functions as repro workloads.

Translates the bytecode of pure-python integer functions into repro IR so
any such function — including stdlib code — can be compiled, linted, served
and held to the placement invariants exactly like a synthetic scenario.  See
:mod:`repro.frontend.translate` for the supported opcode subset, lowering
rules and the determinism contract, and ``docs/frontend.md`` for the guide.
"""

from repro.frontend.translate import (
    FRONTEND_SCHEMA_VERSION,
    PYFUNC_NAMESPACE,
    TranslatedFunction,
    TranslatedModule,
    UnsupportedOpcodeError,
    pyfunc_ir_name,
    python_identity,
    resolve_callable,
    translate_callables,
    translate_function,
    translate_spec,
)

__all__ = [
    "FRONTEND_SCHEMA_VERSION",
    "PYFUNC_NAMESPACE",
    "TranslatedFunction",
    "TranslatedModule",
    "UnsupportedOpcodeError",
    "pyfunc_ir_name",
    "python_identity",
    "resolve_callable",
    "translate_callables",
    "translate_function",
    "translate_spec",
]
