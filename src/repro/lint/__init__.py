"""Static analysis and diagnostics over repro IR.

The lint subsystem turns the analyses the paper already needs — CFG,
dominators, liveness, reaching definitions, loops — into *diagnostics*:
ordered, deterministic :class:`Diagnostic` records with stable codes
(``R001``..), severities, and block/instruction locations, produced by a
pluggable :class:`Rule` registry running over one shared, compute-once
:class:`~repro.analysis.session.CompilationSession`.

Entry points:

* :func:`lint_function` — lint one function, get a :class:`LintReport`.
* ``repro-spill lint`` — the CLI (text/JSON, select/ignore, strict
  gating, baselines); see ``docs/lint.md`` for the rule catalog.
* ``compile_procedure(lint="strict")`` — reject bad IR before compiling,
  raising :class:`LintError` with the structured report attached.
* The service's ``lint`` request type — reports are pure functions of
  (IR, profile, machine, rules), hence cacheable and fleet-routable.
"""

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import (
    BASELINE_SCHEMA,
    LINT_SCHEMA,
    LintConfigError,
    LintError,
    LintReport,
    apply_baseline,
    baseline_payload,
    lint_cache_key,
    lint_function,
    lint_options_token,
    load_baseline,
    resolve_rule_codes,
    write_baseline,
)
from repro.lint.rules import RULES, Rule, all_rules, register_rule

__all__ = [
    "BASELINE_SCHEMA",
    "Diagnostic",
    "LINT_SCHEMA",
    "LintConfigError",
    "LintError",
    "LintReport",
    "RULES",
    "Rule",
    "Severity",
    "all_rules",
    "apply_baseline",
    "baseline_payload",
    "lint_cache_key",
    "lint_function",
    "lint_options_token",
    "load_baseline",
    "register_rule",
    "resolve_rule_codes",
    "write_baseline",
]
