"""Tests for canonical fingerprints and compile-cache key composition.

The fingerprint is defined over the canonical printer output, so the
parser↔printer round-trip property doubles as a fingerprint-stability
property: parsing a printed function and fingerprinting the reparse must
yield the same digest, for any generated procedure.
"""

import pytest

from hypothesis import given

from repro.ir.fingerprint import (
    FINGERPRINT_SCHEMA_VERSION,
    compile_options_token,
    cost_model_identity,
    fingerprint_function,
    fingerprint_module,
    fingerprint_profile,
    machine_identity,
    procedure_cache_key,
)
from repro.ir.module import Module
from repro.ir.parser import parse_function
from repro.pipeline.compiler import TECHNIQUES
from repro.spill.cost_models import JumpEdgeCostModel, make_cost_model
from repro.target.parisc import parisc_target
from repro.target.registry import available_targets, get_target
from repro.workloads.programs import diamond_function, loop_function
from repro.workloads.spec_like import build_suite

from tests.conftest import generated_procedures


class TestFunctionFingerprint:
    @given(generated_procedures(max_segments=4))
    def test_round_trip_preserves_fingerprint(self, procedure):
        """Print→parse is the identity as far as the fingerprint can see."""

        original = fingerprint_function(procedure.function)
        from repro.ir.printer import print_function

        reparsed = parse_function(print_function(procedure.function))
        assert fingerprint_function(reparsed) == original

    def test_same_content_same_fingerprint(self):
        assert fingerprint_function(diamond_function()) == fingerprint_function(
            diamond_function()
        )

    def test_different_functions_differ(self):
        assert fingerprint_function(diamond_function()) != fingerprint_function(
            loop_function()
        )

    def test_fingerprint_is_hex_digest(self):
        digest = fingerprint_function(diamond_function())
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_module_fingerprint_depends_on_every_function(self):
        one = Module("m")
        one.add_function(diamond_function())
        two = Module("m")
        two.add_function(diamond_function())
        two.add_function(loop_function())
        assert fingerprint_module(one) != fingerprint_module(two)


class TestProfileFingerprint:
    def test_stable_and_order_independent(self):
        procedure = build_suite(names=["mcf"], scale=0.1)[0].procedures[0]
        profile = procedure.profile
        first = fingerprint_profile(profile)
        # Same counts inserted in a different dict order → same digest.
        from repro.profiling.profile_data import EdgeProfile

        shuffled = EdgeProfile(
            profile.function_name,
            profile.invocations,
            dict(reversed(list(profile.edge_counts.items()))),
        )
        assert fingerprint_profile(shuffled) == first

    def test_sensitive_to_any_count(self):
        procedure = build_suite(names=["mcf"], scale=0.1)[0].procedures[0]
        profile = procedure.profile
        scaled = profile.scaled(1.0000001)
        assert fingerprint_profile(scaled) != fingerprint_profile(profile)


class TestIdentities:
    def test_machine_identity_covers_cost_weights(self):
        machine = parisc_target()
        assert machine_identity(machine) != machine_identity(
            machine.replace(save_cost=2.0)
        )

    def test_machine_identity_distinct_across_registered_targets(self):
        identities = {machine_identity(get_target(n)) for n in available_targets()}
        assert len(identities) == len(available_targets())

    def test_builtin_models_have_distinct_identities(self):
        machine = parisc_target()
        jump = make_cost_model("jump_edge", machine)
        execution = make_cost_model("execution_count", machine)
        assert cost_model_identity(jump) is not None
        assert cost_model_identity(jump) != cost_model_identity(execution)

    def test_model_identity_covers_machine_weights(self):
        cheap = make_cost_model("jump_edge", parisc_target())
        pricey = make_cost_model("jump_edge", parisc_target().replace(jump_cost=9.0))
        assert cost_model_identity(cheap) != cost_model_identity(pricey)

    def test_builtin_identity_is_pinned(self):
        """Cache keys are built from this string; it must never drift."""

        unit = "0x1.0000000000000p+0"
        assert cost_model_identity(make_cost_model("jump_edge", parisc_target())) == (
            f"repro.spill.cost_models.JumpEdgeCostModel|jump_edge|{unit}|{unit}|{unit}"
        )

    def test_foreign_subclass_is_rejected(self):
        """A subclass could carry state its inherited identity cannot see,
        and would alias the stock model's cache entries; it is refused at
        class definition."""

        with pytest.raises(TypeError, match="closed"):

            class Doubled(JumpEdgeCostModel):
                def location_cost(self, *args, **kwargs):
                    return 2.0 * super().location_cost(*args, **kwargs)


class TestCacheKey:
    def _token(self, **overrides):
        defaults = dict(
            machine=parisc_target(),
            cost_model=make_cost_model("jump_edge", parisc_target()),
            techniques=TECHNIQUES,
            verify=True,
            maximal_regions=True,
        )
        defaults.update(overrides)
        return compile_options_token(**defaults)

    @pytest.mark.parametrize(
        "override",
        [
            {"machine": get_target("micro")},
            {"cost_model": make_cost_model("execution_count", parisc_target())},
            {"techniques": ("baseline",)},
            {"verify": False},
            {"maximal_regions": False},
        ],
        ids=["target", "cost-model", "techniques", "verify", "regions"],
    )
    def test_every_option_changes_the_token(self, override):
        assert self._token(**override) != self._token()

    def test_key_separates_compile_and_lint_namespaces(self):
        procedure = build_suite(names=["mcf"], scale=0.1)[0].procedures[0]
        token = self._token()
        compile_key = procedure_cache_key(
            procedure.function, procedure.profile, token, kind="compile"
        )
        lint_key = procedure_cache_key(
            procedure.function, procedure.profile, token, kind="lint"
        )
        assert compile_key != lint_key

    def test_key_depends_on_function_and_profile(self):
        benchmark = build_suite(names=["mcf"], scale=0.2)[0]
        first, second = benchmark.procedures[:2]
        token = self._token()
        assert procedure_cache_key(
            first.function, first.profile, token
        ) != procedure_cache_key(second.function, second.profile, token)

    def test_schema_version_is_versioned(self):
        assert FINGERPRINT_SCHEMA_VERSION >= 1
