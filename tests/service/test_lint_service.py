"""The ``lint`` request type end to end: server, cache, fleet, strict gate.

The one-payload-everywhere contract under test: a served lint ``result``
is byte-identical (canonical JSON) to the local
:func:`repro.lint.lint_function` payload for the same inputs, a strict
compile's ``lint_rejected`` diagnostics equal the CLI's ``--json`` report
payloads, and lint answers flow through the same cache/coalesce/tier
machinery as compiles without ever aliasing them.
"""

from __future__ import annotations

import json

import pytest

from repro.lint import LintError, lint_function
from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet import Fleet
from repro.service.protocol import (
    LintRequest,
    ProtocolError,
    parse_compile_request,
    parse_lint_request,
    resolve_lint_request,
)
from tests.service.conftest import SAMPLE_IR
from repro.target.registry import get_target
from repro.workloads.scenarios import build_scenario

#: chaos_cfg seed 0 contains draws with genuine R001 errors — the strict
#: rejection fixture (pinned by the lint trace file).
ERROR_SCENARIO = "chaos_cfg:0:4"

#: classic_mix draws warn (dead ballast) but never error — strict passes.
WARN_SCENARIO = "classic_mix:0:0"


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def local_payload(scenario_ref, target="parisc", select=None, ignore=None):
    """The ground-truth lint payload, computed without any server."""

    family, seed, index = scenario_ref.split(":")
    machine = get_target(target)
    generated = build_scenario(
        family, seed=int(seed), count=int(index) + 1, machine=machine
    )[int(index)]
    return lint_function(
        generated.function,
        profile=generated.profile,
        machine=machine,
        select=select,
        ignore=ignore,
    ).payload()


class TestServedLint:
    def test_result_byte_identical_to_local_report(self, embedded_server):
        with embedded_server(workers=1) as emb:
            with ServiceClient(port=emb.port) as client:
                response = client.lint(scenario=WARN_SCENARIO, target="parisc")
        assert response["type"] == "result"
        assert canonical(response["result"]) == canonical(
            local_payload(WARN_SCENARIO)
        )

    def test_inline_ir_lints_like_the_library(self, embedded_server, sample_ir):
        from repro.ir.parser import parse_module
        from repro.ir.passes import ensure_single_exit
        from repro.profiling.synthetic import uniform_profile

        with embedded_server(workers=1) as emb:
            with ServiceClient(port=emb.port) as client:
                response = client.lint(ir=sample_ir, target="tiny")
        function = parse_module(sample_ir).functions[0]
        ensure_single_exit(function)
        expected = lint_function(
            function,
            profile=uniform_profile(function, invocations=1000.0),
            machine=get_target("tiny"),
        ).payload()
        assert canonical(response["result"]) == canonical(expected)

    def test_select_ignore_travel_on_the_wire(self, embedded_server):
        with embedded_server(workers=1) as emb:
            with ServiceClient(port=emb.port) as client:
                response = client.lint(
                    scenario=ERROR_SCENARIO, select=["R001", "R002"],
                    ignore=["R002"],
                )
        assert response["result"]["rules_run"] == ["R001"]
        assert canonical(response["result"]) == canonical(
            local_payload(ERROR_SCENARIO, select=["R001", "R002"], ignore=["R002"])
        )

    def test_malformed_profile_is_a_counted_bad_request(self, embedded_server):
        with embedded_server(workers=1) as emb:
            with ServiceClient(port=emb.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.lint(ir=SAMPLE_IR, profile={"probabilities": 5})
                stats = client.stats()
        assert excinfo.value.code == "bad_request"
        assert stats["requests"]["protocol_errors"] == 1

    def test_unknown_rule_code_is_bad_request(self, embedded_server):
        with embedded_server(workers=1) as emb:
            with ServiceClient(port=emb.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.lint(scenario=WARN_SCENARIO, select=["R999"])
        assert excinfo.value.code == "bad_request"

    def test_lint_results_cache_and_coalesce(self, embedded_server, tmp_path):
        with embedded_server(workers=1, cache=str(tmp_path)) as emb:
            with ServiceClient(port=emb.port) as client:
                first = client.lint(scenario=WARN_SCENARIO)
                second = client.lint(scenario=WARN_SCENARIO)
                bypass = client.lint(scenario=WARN_SCENARIO, cache="bypass")
        assert first["service"]["cache"] == "miss"
        assert second["service"]["cache"] == "hit"
        assert bypass["service"]["cache"] == "bypass"
        assert (
            canonical(first["result"])
            == canonical(second["result"])
            == canonical(bypass["result"])
        )

    def test_lint_cache_never_aliases_compiles(self, embedded_server, tmp_path):
        """Compile-then-lint of the same program: both are cold misses."""

        with embedded_server(workers=1, cache=str(tmp_path)) as emb:
            with ServiceClient(port=emb.port) as client:
                compiled = client.compile(scenario=WARN_SCENARIO)
                linted = client.lint(scenario=WARN_SCENARIO)
        assert compiled["service"]["cache"] == "miss"
        assert linted["service"]["cache"] == "miss"
        assert "diagnostics" in linted["result"]
        assert "diagnostics" not in compiled["result"]


class TestStrictCompileRejection:
    def test_lint_rejected_carries_the_cli_payload(self, embedded_server):
        """The served rejection diagnostics == the library's LintError
        payload == what the CLI emits as JSON for the same procedure."""

        with embedded_server(workers=1) as emb:
            with ServiceClient(port=emb.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.compile(scenario=ERROR_SCENARIO, lint="strict")
        error = excinfo.value
        assert error.code == "lint_rejected"
        assert error.diagnostics is not None

        family, seed, index = ERROR_SCENARIO.split(":")
        machine = get_target("parisc")
        generated = build_scenario(
            family, seed=int(seed), count=int(index) + 1, machine=machine
        )[int(index)]
        report = lint_function(
            generated.function, profile=generated.profile, machine=machine
        )
        assert report.has_errors()
        expected = LintError([report]).payload()
        assert canonical(error.diagnostics) == canonical(expected)
        # ... and the rejection's report is exactly the lint result the
        # service would serve for a standalone lint request.
        assert canonical(error.diagnostics["reports"][0]) == canonical(
            local_payload(ERROR_SCENARIO)
        )

    def test_strict_compile_passes_on_warn_only_programs(self, embedded_server):
        with embedded_server(workers=1) as emb:
            with ServiceClient(port=emb.port) as client:
                response = client.compile(scenario=WARN_SCENARIO, lint="strict")
        assert response["type"] == "result"

    def test_lint_off_is_the_default_wire_format(self):
        """The lint field stays off the wire unless set — signature bytes
        (and therefore coalescing and caching) are unchanged from PR 5."""

        from repro.service.protocol import CompileRequest

        plain = CompileRequest(id="x", program={"scenario": WARN_SCENARIO})
        strict = CompileRequest(
            id="x", program={"scenario": WARN_SCENARIO}, lint="strict"
        )
        assert "lint" not in plain.to_message()
        assert strict.to_message()["lint"] == "strict"
        assert plain.signature() != strict.signature()


class TestFleetRouting:
    def test_lint_routes_through_the_fleet(self):
        with Fleet(shards=2, backend="thread") as fleet:
            with ServiceClient(port=fleet.port) as client:
                first = client.lint(scenario=WARN_SCENARIO)
                # The router put the relayed answer into the shared tier;
                # it now answers without forwarding.
                second = client.lint(scenario=WARN_SCENARIO)
        assert canonical(first["result"]) == canonical(local_payload(WARN_SCENARIO))
        assert first["service"].get("shard", "").startswith("s")
        assert second["service"]["cache"] == "tier"
        assert canonical(second["result"]) == canonical(first["result"])

    def test_fleet_strict_compile_rejection(self):
        with Fleet(shards=2, backend="thread") as fleet:
            with ServiceClient(port=fleet.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.compile(scenario=ERROR_SCENARIO, lint="strict")
        assert excinfo.value.code == "lint_rejected"
        assert excinfo.value.diagnostics is not None

    def test_fleet_strict_compile_is_never_a_tier_hit(self):
        """A plain compile fills the tier, yet the strict compile of the
        same program still reaches the shard's lint gate and is rejected,
        exactly as on a plain server: lint mode is not in the cache key."""

        with Fleet(shards=1, backend="thread") as fleet:
            with ServiceClient(port=fleet.port) as client:
                plain = client.compile(scenario=ERROR_SCENARIO)
                with pytest.raises(ServiceError) as excinfo:
                    client.compile(scenario=ERROR_SCENARIO, lint="strict")
            stats = fleet.stats()
        assert plain["type"] == "result"
        assert stats["tier"]["stored"] == 1
        assert excinfo.value.code == "lint_rejected"
        assert stats["router"]["tier_hits"] == 0


class TestLintRequestProtocol:
    def test_parse_round_trip(self):
        request = LintRequest(
            id="r1",
            program={"scenario": WARN_SCENARIO},
            target="tiny",
            select=("R001", "R002"),
            ignore=("R002",),
        )
        parsed = parse_lint_request(request.to_message())
        assert parsed == request

    def test_resolution_is_deterministic(self):
        request = LintRequest(id="r1", program={"scenario": WARN_SCENARIO})
        keys = {resolve_lint_request(request).cache_key for _ in range(3)}
        assert len(keys) == 1

    def test_signatures_never_collide_with_compiles(self):
        from repro.service.protocol import CompileRequest

        lint = LintRequest(id="x", program={"scenario": WARN_SCENARIO})
        compile_ = CompileRequest(id="x", program={"scenario": WARN_SCENARIO})
        assert lint.signature() != compile_.signature()

    @pytest.mark.parametrize(
        "parse", [parse_compile_request, parse_lint_request], ids=["compile", "lint"]
    )
    @pytest.mark.parametrize(
        "program, profile",
        [
            ({"ir": SAMPLE_IR}, {"probabilities": 5}),
            ({"ir": SAMPLE_IR}, {"probabilities": {"a->b": "x"}}),
            ({"ir": SAMPLE_IR}, {"invocations": "many"}),
            ({"ir": SAMPLE_IR}, {"bogus": 1}),
            ({"scenario": WARN_SCENARIO}, {"invocations": 10}),
            ({"catalog": "catalog:gcd1_MD_RED"}, {"invocations": 10}),
        ],
        ids=[
            "probabilities-not-object",
            "probability-not-number",
            "invocations-not-number",
            "unknown-profile-field",
            "profile-on-scenario",
            "profile-on-catalog",
        ],
    )
    def test_bad_profiles_are_bad_requests_for_both_kinds(self, parse, program, profile):
        kind = "compile" if parse is parse_compile_request else "lint"
        message = {"type": kind, "id": "r1", "program": program, "profile": profile}
        with pytest.raises(ProtocolError) as excinfo:
            parse(message)
        assert excinfo.value.code == "bad_request"
