"""The lint engine: run rules, order findings, serialize, gate, baseline.

:func:`lint_function` is the one entry point everything else goes
through — the CLI, ``compile_procedure(lint="strict")``, the service's
``lint`` request type and the tests all produce a
:class:`LintReport` here, so their payloads are byte-identical for the
same inputs (the service tests compare them as bytes).

Reports are deterministic by construction: rules run in code order, each
rule's findings are sorted by :meth:`Diagnostic.sort_key`, and the JSON
payload is encoded with sorted keys.  :meth:`LintReport.fingerprint`
digests that canonical encoding, which is what tests pin per draw.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.session import CompilationSession
from repro.ir.fingerprint import compile_options_token, procedure_cache_key
from repro.ir.function import Function
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import RULES, Rule, all_rules
from repro.profiling.profile_data import EdgeProfile

#: Schema tag carried by every serialized lint report.
LINT_SCHEMA = "lint-report/v1"

#: Schema tag carried by baseline files.
BASELINE_SCHEMA = "lint-baseline/v1"


class LintConfigError(ValueError):
    """Raised for invalid ``--select``/``--ignore`` rule codes."""


@dataclass(frozen=True)
class LintReport:
    """All findings of one lint pass over one function, in canonical order."""

    function: str
    diagnostics: Tuple[Diagnostic, ...]
    #: Codes of the rules that actually ran (profile/machine gated rules
    #: drop out when their inputs are absent).
    rules_run: Tuple[str, ...] = ()

    @property
    def error_count(self) -> int:
        """Number of error-severity findings."""

        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    def has_errors(self) -> bool:
        """True when any finding is an error."""

        return self.error_count > 0

    def counts(self) -> Dict[str, int]:
        """Finding counts per severity value (always all three keys)."""

        counts = {s.value: 0 for s in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.value] += 1
        return counts

    def payload(self) -> Dict[str, object]:
        """The canonical JSON-object form of this report."""

        return {
            "schema": LINT_SCHEMA,
            "function": self.function,
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "diagnostics": [d.payload() for d in self.diagnostics],
        }

    def canonical_bytes(self) -> bytes:
        """Sorted-key, compact JSON encoding — the fingerprinted form."""

        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":")).encode("utf-8")

    def fingerprint(self) -> str:
        """SHA-256 digest of :meth:`canonical_bytes`."""

        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def render(self) -> str:
        """Human-readable multi-line text form (the CLI's default output)."""

        if not self.diagnostics:
            return f"{self.function}: clean"
        return "\n".join(d.render() for d in self.diagnostics)


class LintError(Exception):
    """Strict-mode rejection: carries the offending reports, structured.

    Raised by ``compile_procedure(lint="strict")`` (and surfaced by the
    service as a ``lint_rejected`` error) when linting finds any
    error-severity diagnostic.  The reports travel with the exception so
    every layer can forward the same structured payload instead of a
    traceback string.
    """

    def __init__(self, reports: Sequence[LintReport]):
        self.reports = tuple(reports)
        total = sum(r.error_count for r in self.reports)
        names = ", ".join(r.function for r in self.reports)
        super().__init__(f"lint rejected {names}: {total} error(s)")

    def payload(self) -> Dict[str, object]:
        """The structured rejection payload: one report payload per function."""

        return {
            "schema": LINT_SCHEMA,
            "reports": [report.payload() for report in self.reports],
        }


def resolve_rule_codes(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """The rules enabled by a ``--select``/``--ignore`` pair, in code order.

    ``select`` restricts to the given codes (default: all), ``ignore``
    drops codes from the selection; unknown codes raise
    :class:`LintConfigError`.
    """

    known = set(RULES)
    selected = set(known) if select is None else set(select)
    ignored = set(ignore) if ignore is not None else set()
    unknown = sorted((selected | ignored) - known)
    if unknown:
        raise LintConfigError(
            f"unknown rule code(s): {', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )
    return [rule for rule in all_rules() if rule.code in selected - ignored]


def lint_function(
    function: Function,
    profile: Optional[EdgeProfile] = None,
    machine=None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint one function and return the ordered, deterministic report.

    Profile- and machine-dependent rules run only when the corresponding
    input is supplied; ``rules_run`` on the report records which did.
    The function is never mutated (property-tested).

    Like the analyses it drives, linting expects single-exit IR (what
    ``repro.ir.passes.ensure_single_exit`` produces and every pipeline,
    CLI and service path feeds it); multi-exit functions may fail inside
    the dominator construction.
    """

    rules = resolve_rule_codes(select, ignore)
    ctx = CompilationSession(function, profile=profile, machine=machine)
    diagnostics: List[Diagnostic] = []
    rules_run: List[str] = []
    for rule in rules:
        if not rule.applies(ctx):
            continue
        rules_run.append(rule.code)
        diagnostics.extend(sorted(rule.run(ctx), key=Diagnostic.sort_key))
    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(
        function=function.name,
        diagnostics=tuple(diagnostics),
        rules_run=tuple(rules_run),
    )


def lint_cache_key(
    function: Function,
    profile: Optional[EdgeProfile],
    machine,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> str:
    """Content-addressed key of one lint result, namespaced apart from compiles.

    Linting is pure and deterministic in (IR, profile, machine, enabled
    rules), so its reports are cacheable and fleet-routable exactly like
    compiles; ``kind="lint"`` keeps the two value types from aliasing.
    """

    return procedure_cache_key(
        function, profile, lint_options_token(machine, select, ignore), kind="lint"
    )


def lint_options_token(
    machine,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> str:
    """The options token of a lint key: the machine plus the enabled rules."""

    enabled = ",".join(rule.code for rule in resolve_rule_codes(select, ignore))
    return compile_options_token(machine, "lint:" + enabled, (), False, False)


# ---------------------------------------------------------------------------
# Baselines: suppress known findings, fail on new ones.
# ---------------------------------------------------------------------------


def baseline_payload(reports: Sequence[LintReport]) -> Dict[str, object]:
    """The baseline-file JSON object recording every current finding."""

    entries: Dict[str, Dict[str, str]] = {}
    for report in reports:
        for diagnostic in report.diagnostics:
            entries[diagnostic.baseline_key()] = {
                "code": diagnostic.code,
                "location": diagnostic.location(),
                "message": diagnostic.message,
            }
    return {"schema": BASELINE_SCHEMA, "entries": entries}


def write_baseline(path, reports: Sequence[LintReport]) -> int:
    """Write a baseline file covering ``reports``; returns the entry count."""

    payload = baseline_payload(reports)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(payload["entries"])


def load_baseline(path) -> Set[str]:
    """Load the set of suppressed baseline keys from ``path``."""

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline file {path} has schema {payload.get('schema')!r}, "
            f"expected {BASELINE_SCHEMA!r}"
        )
    return set(payload.get("entries", {}))


def apply_baseline(report: LintReport, baseline: Set[str]) -> LintReport:
    """A copy of ``report`` with baselined findings removed."""

    kept = tuple(d for d in report.diagnostics if d.baseline_key() not in baseline)
    if len(kept) == len(report.diagnostics):
        return report
    return LintReport(function=report.function, diagnostics=kept, rules_run=report.rules_run)
