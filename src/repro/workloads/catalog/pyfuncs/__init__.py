"""The curated pyfunc corpus: real Python functions the frontend translates.

Two closed modules — :mod:`repro.workloads.catalog.pyfuncs.textbook`
(classic integer algorithms) and
:mod:`repro.workloads.catalog.pyfuncs.stdlib_derived` (faithful ports of
stdlib routines) — whose functions stay inside the frontend's supported
subset: integer arithmetic, comparisons, ``if``/``while``, ``for`` over
``range``, and calls to siblings in the same module.  Every function here is
translated, compiled on every registered target and differentially checked
against CPython by the test battery, in every pressure variant.
"""

from repro.workloads.catalog.pyfuncs import stdlib_derived, textbook

#: The corpus modules, in catalog order.
CORPUS_MODULES = (textbook, stdlib_derived)

__all__ = ["CORPUS_MODULES", "stdlib_derived", "textbook"]
