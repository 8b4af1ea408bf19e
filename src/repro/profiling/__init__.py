"""Profiling support: edge profiles and an IR interpreter.

The spill-placement algorithms are profile guided: every candidate
save/restore location is weighted by the dynamic execution count of the CFG
edge it sits on.  This package provides three ways to obtain those counts:

* :class:`~repro.profiling.profile_data.EdgeProfile` — the data model, with
  flow-conservation checking;
* :func:`~repro.profiling.synthetic.profile_from_branch_probabilities` —
  analytic profiles derived from branch probabilities and invocation counts
  (how the synthetic SPEC-like workloads are profiled);
* :class:`~repro.profiling.interpreter.Interpreter` — an IR interpreter that
  executes functions on concrete inputs while counting every edge traversal
  and every executed instruction.

:mod:`repro.spill.overhead` turns a profile plus a spill placement into the
dynamic spill-overhead numbers reported in the paper's Figure 5 and Table 1.
"""

from repro.profiling.profile_data import EdgeProfile, ProfileError
from repro.profiling.interpreter import ExecutionResult, Interpreter, InterpreterError
from repro.profiling.synthetic import profile_from_branch_probabilities, uniform_profile

__all__ = [
    "EdgeProfile",
    "ExecutionResult",
    "Interpreter",
    "InterpreterError",
    "ProfileError",
    "profile_from_branch_probabilities",
    "uniform_profile",
]
