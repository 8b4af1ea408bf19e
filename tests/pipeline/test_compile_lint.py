"""The pipeline's lint gate: strict mode, batch all-or-nothing, zero cost off."""

from __future__ import annotations

import pytest

from repro.lint import LintError
from repro.pipeline.compiler import compile_many, compile_procedure
from repro.target.registry import get_target
from repro.workloads.scenarios import build_scenario


def chaos(count=5):
    return build_scenario("chaos_cfg", seed=0, count=count, machine=get_target("parisc"))


def clean(count=2):
    return build_scenario("classic_mix", seed=0, count=count, machine=get_target("parisc"))


class TestCompileProcedure:
    def test_strict_passes_warn_only_procedures(self):
        compiled = compile_procedure(clean(1)[0], machine="parisc", lint="strict")
        assert compiled.outcomes

    def test_strict_rejects_error_procedures_with_structured_reports(self):
        bad = chaos()[4]  # draw 4 carries a genuine uninitialized read
        with pytest.raises(LintError) as excinfo:
            compile_procedure(bad, machine="parisc", lint="strict")
        (report,) = excinfo.value.reports
        assert report.function == bad.name
        assert report.has_errors()
        payload = excinfo.value.payload()
        assert payload["reports"][0]["function"] == bad.name

    def test_unknown_policy_is_a_value_error(self):
        with pytest.raises(ValueError, match="lint policy"):
            compile_procedure(clean(1)[0], machine="parisc", lint="pedantic")

    def test_rejection_happens_before_any_compile_work(self):
        """A strict rejection must not populate the cache."""

        from repro.cache.store import CompileCache
        import tempfile

        bad = chaos()[4]
        with tempfile.TemporaryDirectory() as directory:
            cache = CompileCache(directory)
            with pytest.raises(LintError):
                compile_many([bad], machine="parisc", lint="strict", cache=cache)
            assert cache.entry_count() == 0
            assert cache.stats.lookups == 0


class TestCompileMany:
    def test_batch_gate_is_all_or_nothing(self):
        procedures = chaos()
        with pytest.raises(LintError) as excinfo:
            compile_many(procedures, machine="parisc", lint="strict")
        # Every offending procedure is reported in one exception; the ones
        # that lint clean are not compiled either (all-or-nothing).
        assert len(excinfo.value.reports) >= 1
        for report in excinfo.value.reports:
            assert report.has_errors()

    def test_clean_batch_compiles_under_strict(self):
        results = compile_many(clean(), machine="parisc", lint="strict")
        assert len(results) == 2

    def test_lint_none_is_the_default_and_identical(self):
        procedures = clean()
        default = compile_many(procedures, machine="parisc")
        off = compile_many(procedures, machine="parisc", lint=None)
        assert default == off
