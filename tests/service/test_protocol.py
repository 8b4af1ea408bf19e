"""Protocol-layer tests: framing, strict validation, resolution, payloads."""

from __future__ import annotations

import json

import pytest

from repro.ir.fingerprint import fingerprint_function, fingerprint_profile
from repro.service.protocol import (
    PROTOCOL_VERSION,
    CompileRequest,
    ProtocolError,
    decode_message,
    encode_message,
    error_message,
    hello_message,
    parse_compile_request,
    parse_hello,
    resolve_compile_request,
    result_payload,
)


def compile_message(**overrides):
    """A valid baseline compile message, with overrides."""

    message = {
        "type": "compile",
        "id": "r1",
        "program": {"scenario": "scenario:call_web:0:0"},
    }
    message.update(overrides)
    return message


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = compile_message()
        assert decode_message(encode_message(message)) == message

    def test_encoding_is_key_sorted_and_stable(self):
        a = encode_message({"b": 1, "a": 2})
        b = encode_message({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{nope\n")


class TestHello:
    def test_hello_round_trip(self):
        assert parse_hello(hello_message()) == PROTOCOL_VERSION

    def test_hello_with_server_info(self):
        message = hello_message(server_info={"max_queue": 4})
        assert message["server"] == {"max_queue": 4}

    def test_non_integer_version_rejected_with_protocol_code(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_hello({"type": "hello", "protocol": "1"})
        assert excinfo.value.code == "protocol"

    def test_error_message_shape(self):
        message = error_message("overloaded", "full", request_id="r9")
        assert message == {
            "type": "error",
            "code": "overloaded",
            "message": "full",
            "id": "r9",
        }


class TestCompileRequestValidation:
    def test_minimal_message_fills_defaults(self):
        request = parse_compile_request(compile_message())
        assert request.target == "parisc"
        assert request.cost_model == "jump_edge"
        assert request.techniques == ("baseline", "shrinkwrap", "optimized")
        assert request.cache == "use"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"id": ""},
            {"id": 7},
            {"program": "not-an-object"},
            {"program": {}},
            {"program": {"ir": "x", "scenario": "y"}},
            {"program": {"scenario": ""}},
            {"target": "vax"},
            {"cost_model": "psychic"},
            {"techniques": []},
            {"techniques": ["baseline", "baseline"]},
            {"techniques": ["warp"]},
            {"techniques": "baseline"},
            {"cache": "sometimes"},
            {"surprise": True},
        ],
    )
    def test_invalid_fields_rejected(self, mutation):
        with pytest.raises(ProtocolError):
            parse_compile_request(compile_message(**mutation))

    @pytest.mark.parametrize(
        "profile",
        [
            "not-an-object",
            {"invocations": "many"},
            {"invocations": -3.0},
            {"invocations": True},
            {"probabilities": {"no-arrow": 0.5}},
            {"probabilities": {"a->b": 1.5}},
            {"probabilities": {"a->b": "half"}},
            {"unknown_knob": 1},
        ],
    )
    def test_invalid_profiles_rejected(self, profile, sample_ir):
        message = compile_message(program={"ir": sample_ir}, profile=profile)
        with pytest.raises(ProtocolError):
            parse_compile_request(message)

    def test_profile_on_scenario_program_rejected(self):
        with pytest.raises(ProtocolError):
            parse_compile_request(compile_message(profile={"invocations": 10.0}))

    def test_signature_ignores_id_but_not_work(self):
        a = parse_compile_request(compile_message(id="r1")).signature()
        b = parse_compile_request(compile_message(id="r2")).signature()
        c = parse_compile_request(compile_message(target="tiny")).signature()
        assert a == b
        assert a != c


class TestResolution:
    def test_scenario_reference_resolves_deterministically(self):
        message = compile_message()
        first = resolve_compile_request(parse_compile_request(message))
        second = resolve_compile_request(parse_compile_request(message))
        assert first.cache_key == second.cache_key
        assert first.function_fingerprint == fingerprint_function(second.function)

    def test_scenario_prefix_is_optional(self):
        bare = compile_message(program={"scenario": "call_web:0:0"})
        prefixed = compile_message(program={"scenario": "scenario:call_web:0:0"})
        assert (
            resolve_compile_request(parse_compile_request(bare)).cache_key
            == resolve_compile_request(parse_compile_request(prefixed)).cache_key
        )

    def test_scenario_index_defaults_to_zero(self):
        short = compile_message(program={"scenario": "call_web:0"})
        long = compile_message(program={"scenario": "call_web:0:0"})
        assert (
            resolve_compile_request(parse_compile_request(short)).cache_key
            == resolve_compile_request(parse_compile_request(long)).cache_key
        )

    @pytest.mark.parametrize(
        "reference",
        ["call_web", "call_web:zero", "call_web:0:-1", "no_such_family:0"],
    )
    def test_bad_scenario_references_rejected(self, reference):
        message = compile_message(program={"scenario": reference})
        with pytest.raises(ProtocolError):
            parse_compile_request(message) and resolve_compile_request(
                parse_compile_request(message)
            )

    def test_inline_ir_resolves_and_fingerprints(self, sample_ir):
        message = compile_message(program={"ir": sample_ir})
        resolved = resolve_compile_request(parse_compile_request(message))
        assert resolved.function.name == "sample"
        assert resolved.profile.invocations == 1000.0

    def test_inline_ir_with_profile_changes_the_key(self, sample_ir):
        plain = compile_message(program={"ir": sample_ir})
        profiled = compile_message(
            program={"ir": sample_ir},
            profile={"invocations": 500.0, "probabilities": {"entry->merge": 0.9}},
        )
        key_a = resolve_compile_request(parse_compile_request(plain)).cache_key
        key_b = resolve_compile_request(parse_compile_request(profiled)).cache_key
        assert key_a != key_b

    def test_unparsable_ir_rejected(self):
        message = compile_message(program={"ir": "func broken ("})
        with pytest.raises(ProtocolError):
            resolve_compile_request(parse_compile_request(message))

    def test_multi_function_module_rejected(self, sample_ir):
        two = sample_ir + sample_ir.replace("sample", "second")
        message = compile_message(program={"ir": two})
        with pytest.raises(ProtocolError):
            resolve_compile_request(parse_compile_request(message))

    def test_cache_policy_namespaces_the_coalesce_key(self):
        use = resolve_compile_request(parse_compile_request(compile_message()))
        bypass = resolve_compile_request(
            parse_compile_request(compile_message(cache="bypass"))
        )
        assert use.cache_key == bypass.cache_key
        assert use.coalesce_key != bypass.coalesce_key

    def test_options_differ_the_cache_key(self):
        base = resolve_compile_request(parse_compile_request(compile_message()))
        other_model = resolve_compile_request(
            parse_compile_request(compile_message(cost_model="execution_count"))
        )
        fewer = resolve_compile_request(
            parse_compile_request(compile_message(techniques=["baseline"]))
        )
        assert len({base.cache_key, other_model.cache_key, fewer.cache_key}) == 3

    def test_each_fingerprint_is_computed_once_per_resolution(self, monkeypatch):
        import repro.service.protocol as protocol_module
        from repro.ir.fingerprint import compile_options_token, procedure_cache_key
        from repro.lint import lint_cache_key
        from repro.pipeline.compiler import TECHNIQUES
        from repro.spill.cost_models import make_cost_model

        calls = []
        for name in ("fingerprint_function", "fingerprint_profile"):
            real = getattr(protocol_module, name)
            monkeypatch.setattr(
                protocol_module,
                name,
                lambda value, _real=real, _name=name: calls.append(_name) or _real(value),
            )
        compiled = resolve_compile_request(parse_compile_request(compile_message()))
        assert sorted(calls) == ["fingerprint_function", "fingerprint_profile"]
        calls.clear()
        linted = protocol_module.resolve_lint_request(
            protocol_module.parse_lint_request(
                {"type": "lint", "id": "l", "program": {"scenario": "call_web:0:0"}}
            )
        )
        assert sorted(calls) == ["fingerprint_function", "fingerprint_profile"]

        # The keys derived from those fingerprints are the pinned ones.
        machine = compiled.machine
        token = compile_options_token(
            machine, make_cost_model("jump_edge", machine), TECHNIQUES, True, True
        )
        assert compiled.cache_key == procedure_cache_key(
            compiled.function, compiled.profile, token
        )
        assert linted.cache_key == lint_cache_key(
            linted.function, linted.profile, linted.machine
        )

    @pytest.mark.parametrize("seed", [0, 1, 100])
    @pytest.mark.parametrize("index", [0, 1])
    def test_scenario_refs_build_what_their_family_builds(self, seed, index):
        """``scenario:`` refs resolve through the catalog's aliases; every
        family still builds exactly what its registry builder builds."""

        from repro.target.registry import resolve_target
        from repro.workloads.scenarios import get_scenario, scenario_names

        machine = resolve_target(None)
        for family in scenario_names():
            resolved = resolve_compile_request(
                parse_compile_request(
                    compile_message(program={"scenario": f"{family}:{seed}:{index}"})
                )
            )
            built = get_scenario(family).builder(seed, index, machine)
            assert resolved.function_fingerprint == fingerprint_function(built.function)
            assert resolved.profile_fingerprint == fingerprint_profile(built.profile)
            via_alias = resolve_compile_request(
                parse_compile_request(
                    compile_message(program={"catalog": f"{family}:{seed}:{index}"})
                )
            )
            assert via_alias.cache_key == resolved.cache_key


class TestWireRoundTrip:
    def test_request_to_message_parses_back_equal(self):
        request = CompileRequest(
            id="r7",
            program={"scenario": "scenario:classic_mix:3:1"},
            target="tiny",
            cost_model="execution_count",
            techniques=("baseline", "optimized"),
            cache="bypass",
        )
        # Through JSON, as the wire would carry it.
        parsed = parse_compile_request(json.loads(encode_message(request.to_message())))
        assert parsed == request


class TestResultPayload:
    @pytest.mark.parametrize("techniques", [None, ["optimized", "baseline"]])
    def test_compiled_procedure_and_its_record_give_the_same_payload(self, techniques):
        from repro.pipeline.compiler import compile_procedure

        overrides = {} if techniques is None else {"techniques": techniques}
        request = parse_compile_request(compile_message(**overrides))
        resolved = resolve_compile_request(request)
        compiled = compile_procedure(
            (resolved.function, resolved.profile),
            machine=resolved.machine,
            cost_model=request.cost_model,
            techniques=request.techniques,
        )
        expected = result_payload(resolved, compiled)
        assert json.dumps(result_payload(resolved, compiled.record), sort_keys=True) == (
            json.dumps(expected, sort_keys=True)
        )
        assert list(expected["techniques_overhead"]) == list(request.techniques)
