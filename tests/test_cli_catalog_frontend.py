"""CLI surface of the workload catalog and the bytecode frontend.

``repro-spill scenarios --json`` (combination codes alongside legacy
names), ``repro-spill catalog list|show|lint`` and ``repro-spill frontend
translate`` — each exercised through :func:`repro.cli.main` exactly as a
shell invocation would reach it.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.workloads.catalog import get_catalog
from repro.workloads.scenarios import scenario_names

GCD_SPEC = "repro.workloads.catalog.pyfuncs.textbook:gcd"


class TestScenariosCommand:
    def test_plain_listing_keeps_legacy_names(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for family in scenario_names():
            assert family in output

    def test_listing_annotates_combination_codes(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "switch1_MD_RED" in output

    def test_json_listing_shape(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        by_name = {row["name"]: row for row in payload}
        assert set(by_name) == set(scenario_names())
        row = by_name["switch_dispatch"]
        assert row["description"]
        assert "switch1_MD_RED" in row["catalog_codes"]

    def test_every_family_lists_codes_in_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for row in payload:
            assert row["catalog_codes"], f"{row['name']} has no catalog codes"


class TestCatalogCommand:
    def test_list_shows_codes_and_aliases(self, capsys):
        assert main(["catalog", "list"]) == 0
        output = capsys.readouterr().out
        assert "gcd1_MD_RED" in output
        assert "switch_dispatch" in output  # alias line

    def test_list_kind_filter(self, capsys):
        assert main(["catalog", "list", "--kind", "pyfunc"]) == 0
        output = capsys.readouterr().out
        assert "gcd1_MD_RED" in output
        # Entry rows stop at the blank line (alias lines follow); with the
        # filter every remaining row's kind column must be pyfunc.
        rows = output.split("\n\n")[0].splitlines()
        assert rows and all(row.split()[1] == "pyfunc" for row in rows)

    def test_list_json_round_trips_the_catalog(self, capsys):
        assert main(["catalog", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        catalog = get_catalog()
        assert payload["schema"] == "workload-catalog/v1"
        assert payload["version"] == catalog.version
        assert {row["name"] for row in payload["entries"]} == set(catalog.names())
        assert payload["aliases"] == dict(catalog.aliases)

    def test_show_resolves_aliases(self, capsys):
        assert main(["catalog", "show", "switch_dispatch"]) == 0
        output = capsys.readouterr().out
        assert "switch1_MD_RED" in output

    def test_show_json_carries_the_entry_fields(self, capsys):
        assert main(["catalog", "show", "gcd1_MD_RED", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "pyfunc"
        assert payload["module"] == "textbook"
        assert payload["func"] == "gcd"
        assert payload["inputs"]

    def test_show_unknown_name_fails(self, capsys):
        assert main(["catalog", "show", "nonesuch99_MD_RED"]) == 2
        assert "unknown catalog entry" in capsys.readouterr().err

    def test_lint_passes_on_the_checked_in_catalog(self, capsys):
        assert main(["catalog", "lint"]) == 0
        assert "catalog ok" in capsys.readouterr().out


class TestFrontendCommand:
    def test_translate_prints_ir_and_fingerprint(self, capsys):
        assert main(["frontend", "translate", GCD_SPEC]) == 0
        output = capsys.readouterr().out
        assert "func pyfunc.textbook.gcd(" in output
        assert "; fingerprint:" in output
        assert "; python    :" in output

    def test_translate_fingerprint_only_is_stable(self, capsys):
        assert main(["frontend", "translate", GCD_SPEC, "--fingerprint-only"]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["frontend", "translate", GCD_SPEC, "--fingerprint-only"]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first.splitlines()) == 1

    def test_unsupported_function_exits_one_and_names_the_opcode(self, capsys):
        spec = "repro.service.loadgen:build_request_plan"
        assert main(["frontend", "translate", spec]) == 1
        err = capsys.readouterr().err
        assert "unsupported" in err.lower() or "_" in err  # names an opcode

    def test_bad_spec_exits_two(self, capsys):
        assert main(["frontend", "translate", "no.such.module:f"]) == 2
        assert main(["frontend", "translate", "colonless"]) == 2
