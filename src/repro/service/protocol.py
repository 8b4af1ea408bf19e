"""The compile service wire protocol: versioned JSON-lines messages.

The server (:mod:`repro.service.server`) and clients
(:mod:`repro.service.client`) speak newline-delimited JSON over a stream
socket.  Every connection opens with a **handshake**: the client's first
message must be a ``hello`` carrying :data:`PROTOCOL_VERSION`; the server
answers with its own ``hello`` (or a ``protocol`` error, closing the
connection, on a version mismatch).  After the handshake the client sends
request messages and the server answers each one — responses to *compile*
requests may arrive in a different order than the requests were sent
(batching reorders work), so every request carries a client-chosen ``id``
that the matching response echoes.

Message types
-------------

``hello``
    handshake (both directions);
``compile``
    compile one procedure — either inline textual IR or a reference into
    the scenario registry (``scenario:<family>:<seed>[:<index>]``) or the
    workload catalog (``catalog:<name>[:<seed>[:<index>]]``) — on a
    named target with a named cost model; answered by ``result`` or
    ``error``;
``stats``
    fetch the server's metrics snapshot (:mod:`repro.service.metrics`);
``metrics``
    fetch the Prometheus-style plaintext rendering of the same snapshot
    (``metrics-text/v1``; :func:`repro.service.health.render_metrics_text`),
    answered as ``{"type": "metrics", "schema": ..., "text": ...}``;
``shutdown``
    ask the server to drain gracefully (stop admitting, finish queued
    work, close);
``result`` / ``error``
    server answers.  ``error`` codes: ``bad_request`` (malformed or
    unresolvable request), ``overloaded`` (admission queue full — retry
    later), ``shutting_down`` (server is draining), ``protocol``
    (handshake violation), ``internal`` (unexpected server failure).

Determinism contract
--------------------

The ``result`` field of a compile response is **bit-identical** to what a
direct :func:`repro.pipeline.compiler.compile_many` call produces for the
same (program, target, techniques, profile): it is built by
:func:`result_payload` from the same :class:`CompileRecord`, and JSON
round-trips Python floats exactly (shortest-repr encoding), so equality
survives the wire.  Timing and service metadata (queue latency, cache and
coalesce status) live *outside* ``result`` — they legitimately differ
between a compiled, a cached and a coalesced answer to the same request.

Everything here is standard library only and validation is strict: unknown
message types, unknown fields, wrong value types and out-of-range values
are all :class:`ProtocolError`\\ s, never silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.ir.fingerprint import (
    compile_options_token,
    fingerprint_function,
    fingerprint_profile,
    fingerprints_cache_key,
)
from repro.ir.function import Function
from repro.ir.parser import IRParseError, parse_module
from repro.ir.passes import ensure_single_exit
from repro.ir.verifier import IRVerificationError, verify_function
from repro.pipeline.compiler import TECHNIQUES, CompiledProcedure, CompileRecord
from repro.profiling.profile_data import EdgeProfile, ProfileError
from repro.profiling.synthetic import (
    profile_from_branch_probabilities,
    uniform_profile,
)
from repro.spill.cost_models import make_cost_model
from repro.target.machine import MachineDescription
from repro.target.registry import DEFAULT_TARGET, available_targets, resolve_target
from repro.workloads.catalog import get_catalog
from repro.workloads.scenarios import scenario_names

#: Bump on any incompatible wire-format change; the handshake rejects
#: mismatched peers instead of misreading their messages.
PROTOCOL_VERSION = 1

#: Schema tag carried inside every compile ``result`` payload.
RESULT_SCHEMA = "service-result/v1"

#: Cost models a request may name (the registered, cache-keyable ones).
COST_MODELS = ("jump_edge", "execution_count")

#: Cache policies a compile request may ask for.
CACHE_POLICIES = ("use", "bypass")

#: Lint policies a compile request may carry on the wire.  ``off`` is the
#: default and is never serialized, so pre-lint request signatures (and
#: hence coalescing and duplicate-consistency checks) are byte-unchanged.
LINT_WIRE_POLICIES = ("off", "strict")

#: Schema tag carried inside every ``lint`` result payload (shared with
#: the CLI's ``--json`` output; see :mod:`repro.lint.engine`).
LINT_RESULT_SCHEMA = "lint-report/v1"

#: Invocation count assumed for inline-IR requests without a profile.
DEFAULT_INVOCATIONS = 1000.0

#: Error codes the server may answer with.
ERROR_CODES = (
    "bad_request",
    "overloaded",
    "shutting_down",
    "protocol",
    "internal",
    "lint_rejected",
)


class ProtocolError(ValueError):
    """A malformed or invalid protocol message.

    ``code`` is the error code the server reports it under (usually
    ``bad_request``; ``protocol`` for handshake violations).
    """

    def __init__(self, message: str, code: str = "bad_request"):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


#: Upper bound on one JSON-lines frame (guards the server against a client
#: streaming an unbounded line into memory).
MAX_FRAME_BYTES = 4 * 1024 * 1024


def encode_message(message: Mapping[str, Any]) -> bytes:
    """Serialize one message to a JSON line (UTF-8, trailing newline).

    Keys are sorted so identical messages are byte-identical on the wire —
    the property the duplicate-response consistency checks rely on.
    """

    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one JSON line into a message dict (strictly an object)."""

    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


# ---------------------------------------------------------------------------
# Field validation helpers.
# ---------------------------------------------------------------------------


def _require_str(message: Mapping[str, Any], key: str, default: Optional[str] = None) -> str:
    value = message.get(key, default)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"field {key!r} must be a non-empty string")
    return value


def _check_fields(message: Mapping[str, Any], allowed: Sequence[str], kind: str) -> None:
    unknown = sorted(set(message) - set(allowed) - {"type"})
    if unknown:
        raise ProtocolError(f"{kind} request has unknown field(s): {', '.join(unknown)}")


# ---------------------------------------------------------------------------
# Requests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompileRequest:
    """One validated compile request (wire form, not yet resolved to IR).

    ``program`` is exactly one of ``{"ir": <text>}`` or
    ``{"scenario": "family:seed[:index]"}``.  ``profile`` (inline-IR
    programs only) follows the corpus sidecar shape:
    ``{"invocations": <float>, "probabilities": {"src->dst": <p>, ...}}``.
    """

    id: str
    program: Mapping[str, Any]
    target: str = DEFAULT_TARGET
    cost_model: str = "jump_edge"
    techniques: Tuple[str, ...] = TECHNIQUES
    profile: Optional[Mapping[str, Any]] = None
    cache: str = "use"
    #: ``"off"`` (default) or ``"strict"``; strict requests are answered
    #: with a ``lint_rejected`` error carrying the structured report when
    #: the resolved IR has error-severity diagnostics.
    lint: str = "off"

    def to_message(self) -> Dict[str, Any]:
        """The wire form of this request.

        ``lint`` is serialized only when non-default so that requests not
        using the option are byte-identical to protocol-v1 requests.
        """

        message: Dict[str, Any] = {
            "type": "compile",
            "id": self.id,
            "program": dict(self.program),
            "target": self.target,
            "cost_model": self.cost_model,
            "techniques": list(self.techniques),
            "cache": self.cache,
        }
        if self.profile is not None:
            message["profile"] = dict(self.profile)
        if self.lint != "off":
            message["lint"] = self.lint
        return message

    def signature(self) -> str:
        """A canonical byte-stable identity of the request *work* (id excluded).

        Two requests with equal signatures must receive byte-identical
        ``result`` payloads — the consistency invariant the load harness
        checks across duplicates, coalesced answers and cache replays.
        """

        payload = self.to_message()
        del payload["id"]
        return json.dumps(payload, sort_keys=True)


def _parse_program_fields(
    message: Mapping[str, Any]
) -> Tuple[Mapping[str, Any], str, str, Optional[Mapping[str, Any]]]:
    """Validate the ``program``/``target``/``cache``/``profile`` fields.

    The vocabulary compile and lint requests share; returns them as
    ``(program, target, cache, profile)`` with the defaults filled in.
    """

    program = message.get("program")
    if not isinstance(program, Mapping):
        raise ProtocolError("field 'program' must be an object")
    keys = sorted(program)
    if keys not in (["ir"], ["scenario"], ["catalog"]):
        raise ProtocolError(
            "field 'program' must have exactly one of the keys "
            "'ir', 'scenario' or 'catalog'"
        )
    if not isinstance(program[keys[0]], str) or not program[keys[0]]:
        raise ProtocolError(f"program {keys[0]!r} must be a non-empty string")

    target = _require_str(message, "target", DEFAULT_TARGET)
    if target not in available_targets():
        raise ProtocolError(
            f"unknown target {target!r}; expected one of {', '.join(available_targets())}"
        )

    cache = _require_str(message, "cache", "use")
    if cache not in CACHE_POLICIES:
        raise ProtocolError(
            f"unknown cache policy {cache!r}; expected one of {', '.join(CACHE_POLICIES)}"
        )

    profile = message.get("profile")
    if profile is not None:
        if "ir" not in program:
            raise ProtocolError("field 'profile' is only valid for inline-IR programs")
        if not isinstance(profile, Mapping):
            raise ProtocolError("field 'profile' must be an object")
        extra = sorted(set(profile) - {"invocations", "probabilities"})
        if extra:
            raise ProtocolError(f"profile has unknown field(s): {', '.join(extra)}")
        invocations = profile.get("invocations", DEFAULT_INVOCATIONS)
        if not isinstance(invocations, (int, float)) or isinstance(invocations, bool):
            raise ProtocolError("profile 'invocations' must be a number")
        if invocations <= 0:
            raise ProtocolError("profile 'invocations' must be positive")
        probabilities = profile.get("probabilities", {})
        if not isinstance(probabilities, Mapping):
            raise ProtocolError("profile 'probabilities' must be an object")
        for key, value in probabilities.items():
            if not isinstance(key, str) or "->" not in key:
                raise ProtocolError(
                    f"profile probability key {key!r} must look like 'src->dst'"
                )
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not 0.0 <= float(value) <= 1.0
            ):
                raise ProtocolError(
                    f"profile probability for {key!r} must be a number in [0, 1]"
                )
    return program, target, cache, profile


def parse_compile_request(message: Mapping[str, Any]) -> CompileRequest:
    """Strictly validate a ``compile`` message into a :class:`CompileRequest`."""

    _check_fields(
        message,
        ("id", "program", "target", "cost_model", "techniques", "profile", "cache", "lint"),
        "compile",
    )
    request_id = _require_str(message, "id")
    program, target, cache, profile = _parse_program_fields(message)
    cost_model = _require_str(message, "cost_model", "jump_edge")
    if cost_model not in COST_MODELS:
        raise ProtocolError(
            f"unknown cost model {cost_model!r}; expected one of {', '.join(COST_MODELS)}"
        )
    techniques = message.get("techniques", list(TECHNIQUES))
    if (
        not isinstance(techniques, (list, tuple))
        or not techniques
        or not all(isinstance(t, str) for t in techniques)
    ):
        raise ProtocolError("field 'techniques' must be a non-empty list of strings")
    unknown = [t for t in techniques if t not in TECHNIQUES]
    if unknown:
        raise ProtocolError(
            f"unknown technique(s) {', '.join(unknown)}; expected a subset of "
            + ", ".join(TECHNIQUES)
        )
    if len(set(techniques)) != len(techniques):
        raise ProtocolError("field 'techniques' must not repeat entries")

    lint = _require_str(message, "lint", "off")
    if lint not in LINT_WIRE_POLICIES:
        raise ProtocolError(
            f"unknown lint policy {lint!r}; expected one of {', '.join(LINT_WIRE_POLICIES)}"
        )

    return CompileRequest(
        id=request_id,
        program=dict(program),
        target=target,
        cost_model=cost_model,
        techniques=tuple(techniques),
        profile=dict(profile) if profile is not None else None,
        cache=cache,
        lint=lint,
    )


def parse_hello(message: Mapping[str, Any]) -> int:
    """Validate a ``hello`` message; returns the peer's protocol version."""

    _check_fields(message, ("protocol", "server", "client"), "hello")
    version = message.get("protocol")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError("hello 'protocol' must be an integer", code="protocol")
    return version


def hello_message(server_info: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Build a ``hello`` message (client side when ``server_info`` is None)."""

    message: Dict[str, Any] = {"type": "hello", "protocol": PROTOCOL_VERSION}
    if server_info is not None:
        message["server"] = dict(server_info)
    return message


def error_message(
    code: str,
    message: str,
    request_id: Optional[str] = None,
    diagnostics: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build an ``error`` response.

    ``diagnostics`` attaches a structured payload to the error —
    ``lint_rejected`` errors carry the full lint report this way, the
    exact object the CLI's ``--json`` mode prints for the same IR.
    """

    assert code in ERROR_CODES, code
    payload: Dict[str, Any] = {"type": "error", "code": code, "message": message}
    if request_id is not None:
        payload["id"] = request_id
    if diagnostics is not None:
        payload["diagnostics"] = dict(diagnostics)
    return payload


# ---------------------------------------------------------------------------
# Request resolution: wire form -> compilable work.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompileIdentity:
    """What resolving a request decides, without the IR it built.

    ``cache_key`` is the content address of the work; ``coalesce_key``
    additionally namespaces the cache policy so a ``bypass`` request never
    rides a ``use`` entry (results would be identical, but the service
    metadata must stay truthful).  Everything :func:`result_payload`
    reads besides the compile record is here, so a request whose identity
    is already known can be answered from the cache without resolving it
    again.  Lint resolutions carry one too, with no cost model or
    techniques.  Small and immutable: the endpoints' resolution memo
    holds these, never a :class:`Function` or an :class:`EdgeProfile`.
    """

    cache_key: str
    coalesce_key: str
    function_fingerprint: str
    profile_fingerprint: str
    target: str
    cost_model: Optional[str] = None
    techniques: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ResolvedCompile:
    """A compile request resolved to concrete pipeline inputs.

    Shared by the server, the test oracle and the load generator's
    ``--check`` mode, so all three agree byte-for-byte on what a request
    means.  ``options_key`` groups requests that can share one
    :func:`~repro.pipeline.compiler.compile_many` batch; the keys and
    fingerprints live in :attr:`identity`.
    """

    request: CompileRequest
    function: Function
    profile: EdgeProfile
    machine: MachineDescription
    identity: CompileIdentity

    @property
    def options_key(self) -> Tuple[str, str, Tuple[str, ...], str]:
        """Batch-grouping key: requests sharing it compile in one batch."""

        return (
            self.request.target,
            self.request.cost_model,
            tuple(self.request.techniques),
            self.request.cache,
        )

    @property
    def cache_key(self) -> str:
        """The content address of the work (``identity.cache_key``)."""
        return self.identity.cache_key

    @property
    def coalesce_key(self) -> str:
        """The in-flight dedup key (``identity.coalesce_key``)."""
        return self.identity.coalesce_key

    @property
    def function_fingerprint(self) -> str:
        """Fingerprint of the resolved function's IR."""
        return self.identity.function_fingerprint

    @property
    def profile_fingerprint(self) -> str:
        """Fingerprint of the resolved edge profile."""
        return self.identity.profile_fingerprint


def _identity(
    request: Union[CompileRequest, "LintRequest"],
    function: Function,
    profile: EdgeProfile,
    options_token: str,
    kind: str,
) -> CompileIdentity:
    """Fingerprint a resolved program once and derive its keys from that."""

    function_fingerprint = fingerprint_function(function)
    profile_fingerprint = fingerprint_profile(profile)
    cache_key = fingerprints_cache_key(
        function_fingerprint, profile_fingerprint, options_token, kind
    )
    return CompileIdentity(
        cache_key=cache_key,
        coalesce_key=f"{request.cache}:{cache_key}",
        function_fingerprint=function_fingerprint,
        profile_fingerprint=profile_fingerprint,
        target=request.target,
        cost_model=getattr(request, "cost_model", None),
        techniques=tuple(getattr(request, "techniques", ())),
    )


def _reference_error(kind: str, reference: str, detail: str) -> ProtocolError:
    """The one error shape every program-reference failure uses.

    Mirrors the inline-IR failures (``IR does not parse: <detail>``) so a
    malformed reference echoes the same context — the full reference plus a
    specific reason — on the CLI and service paths alike, byte-for-byte.
    """

    return ProtocolError(f"{kind} reference {reference!r} does not resolve: {detail}")


def _parse_program_reference(
    kind: str, reference: str, grammar: str, names: Sequence[str],
    seed_required: bool,
) -> Tuple[str, int, int]:
    """Split ``<kind>:<name>[:<seed>[:<index>]]`` with unified errors."""

    parts = reference.split(":")
    if parts and parts[0] == kind:
        parts = parts[1:]
    allowed = (2, 3) if seed_required else (1, 2, 3)
    if len(parts) not in allowed:
        raise _reference_error(kind, reference, f"expected {grammar!r}")
    name = parts[0]
    if name not in names:
        raise _reference_error(
            kind,
            reference,
            f"unknown {kind} name {name!r}; expected one of " + ", ".join(names),
        )
    try:
        seed = int(parts[1]) if len(parts) >= 2 else 0
        index = int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise _reference_error(kind, reference, "non-integer seed/index") from None
    if index < 0:
        raise _reference_error(kind, reference, f"index must be >= 0, got {index}")
    return name, seed, index


def _parse_scenario_reference(reference: str) -> Tuple[str, int, int]:
    """Split ``scenario:<family>:<seed>[:<index>]`` (prefix optional)."""

    return _parse_program_reference(
        "scenario",
        reference,
        "scenario:<family>:<seed>[:<index>]",
        scenario_names(),
        seed_required=True,
    )


def _parse_catalog_reference(reference: str) -> Tuple[str, int, int]:
    """Split ``catalog:<name>[:<seed>[:<index>]]`` (prefix optional).

    ``<name>`` is a combination code or a legacy alias; unlike scenario
    references the seed defaults to 0, so ``catalog:gcd1_MD_RED`` alone is a
    complete reference.
    """

    catalog = get_catalog()
    return _parse_program_reference(
        "catalog",
        reference,
        "catalog:<name>[:<seed>[:<index>]]",
        tuple(catalog.names()) + tuple(sorted(catalog.aliases)),
        seed_required=False,
    )


def _resolve_program(
    program: Mapping[str, Any],
    profile_spec: Optional[Mapping[str, Any]],
    machine: MachineDescription,
) -> Tuple[Function, EdgeProfile]:
    """Resolve a request's ``program`` (+ optional profile) to pipeline inputs.

    Shared by compile and lint resolution so both request types agree
    byte-for-byte on what a program reference means.  A ``scenario:``
    reference names a family, which the catalog aliases to the entry that
    builds the same procedures, so both reference kinds build through the
    catalog.
    """

    if "scenario" in program or "catalog" in program:
        if "scenario" in program:
            name, seed, index = _parse_scenario_reference(program["scenario"])
        else:
            name, seed, index = _parse_catalog_reference(program["catalog"])
        generated = get_catalog().resolve(name).build(seed, index, machine)
        return generated.function, generated.profile
    try:
        module = parse_module(program["ir"])
    except IRParseError as exc:
        raise ProtocolError(f"IR does not parse: {exc}") from None
    if len(module.functions) != 1:
        raise ProtocolError(
            f"program must contain exactly one function, got {len(module.functions)}"
        )
    function = module.functions[0]
    ensure_single_exit(function)
    try:
        verify_function(function, require_single_exit=True)
    except IRVerificationError as exc:
        raise ProtocolError(f"IR does not verify: {exc}") from None
    try:
        if profile_spec is not None:
            probabilities = {
                tuple(key.split("->", 1)): float(value)
                for key, value in profile_spec.get("probabilities", {}).items()
            }
            profile = profile_from_branch_probabilities(
                function,
                invocations=float(
                    profile_spec.get("invocations", DEFAULT_INVOCATIONS)
                ),
                probabilities=probabilities,
            )
        else:
            profile = uniform_profile(function, invocations=DEFAULT_INVOCATIONS)
    except ProfileError as exc:
        raise ProtocolError(f"profile is inconsistent: {exc}") from None
    return function, profile


def resolve_compile_request(request: CompileRequest) -> ResolvedCompile:
    """Turn a validated request into concrete, fingerprinted pipeline inputs.

    Raises :class:`ProtocolError` (``bad_request``) for IR that does not
    parse or verify, profiles whose flow equations are inconsistent, and
    malformed scenario references.  The resolution is deterministic: the
    same request always resolves to a function/profile pair with the same
    fingerprints, on every host — that is what makes the cache key a
    correct coalescing key.
    """

    machine = resolve_target(request.target)
    function, profile = _resolve_program(request.program, request.profile, machine)
    cost_model = make_cost_model(request.cost_model, machine)
    token = compile_options_token(
        machine, cost_model, request.techniques, True, True
    )
    return ResolvedCompile(
        request=request,
        function=function,
        profile=profile,
        machine=machine,
        identity=_identity(request, function, profile, token, "compile"),
    )


# ---------------------------------------------------------------------------
# Lint requests: same resolution, pure analysis instead of a compile.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintRequest:
    """One validated ``lint`` request (wire form).

    Shares the ``program``/``target``/``profile`` vocabulary of compile
    requests; ``select``/``ignore`` mirror the CLI flags and restrict the
    rule set.  Lint reports are pure functions of (IR, profile, target,
    enabled rules), so the request is cacheable and fleet-routable exactly
    like a compile.
    """

    id: str
    program: Mapping[str, Any]
    target: str = DEFAULT_TARGET
    profile: Optional[Mapping[str, Any]] = None
    select: Optional[Tuple[str, ...]] = None
    ignore: Optional[Tuple[str, ...]] = None
    cache: str = "use"

    def to_message(self) -> Dict[str, Any]:
        """The wire form of this request."""

        message: Dict[str, Any] = {
            "type": "lint",
            "id": self.id,
            "program": dict(self.program),
            "target": self.target,
            "cache": self.cache,
        }
        if self.profile is not None:
            message["profile"] = dict(self.profile)
        if self.select is not None:
            message["select"] = list(self.select)
        if self.ignore is not None:
            message["ignore"] = list(self.ignore)
        return message

    def signature(self) -> str:
        """Canonical byte-stable identity of the request work (id excluded)."""

        payload = self.to_message()
        del payload["id"]
        return json.dumps(payload, sort_keys=True)


def _parse_rule_codes(message: Mapping[str, Any], key: str) -> Optional[Tuple[str, ...]]:
    value = message.get(key)
    if value is None:
        return None
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(isinstance(code, str) for code in value)
    ):
        raise ProtocolError(f"field {key!r} must be a non-empty list of rule codes")
    return tuple(value)


def parse_lint_request(message: Mapping[str, Any]) -> LintRequest:
    """Strictly validate a ``lint`` message into a :class:`LintRequest`."""

    _check_fields(
        message, ("id", "program", "target", "profile", "select", "ignore", "cache"), "lint"
    )
    request_id = _require_str(message, "id")
    program, target, cache, profile = _parse_program_fields(message)
    select = _parse_rule_codes(message, "select")
    ignore = _parse_rule_codes(message, "ignore")
    return LintRequest(
        id=request_id,
        program=dict(program),
        target=target,
        profile=dict(profile) if profile is not None else None,
        select=select,
        ignore=ignore,
        cache=cache,
    )


@dataclass(frozen=True)
class ResolvedLint:
    """A lint request resolved to concrete analysis inputs plus its identity."""

    request: LintRequest
    function: Function
    profile: EdgeProfile
    machine: MachineDescription
    identity: CompileIdentity

    @property
    def cache_key(self) -> str:
        """The content address of the work (``identity.cache_key``)."""
        return self.identity.cache_key

    @property
    def coalesce_key(self) -> str:
        """The in-flight dedup key (``identity.coalesce_key``)."""
        return self.identity.coalesce_key


def resolve_lint_request(request: LintRequest) -> ResolvedLint:
    """Resolve a lint request through the same program resolution as compiles.

    Unknown rule codes in ``select``/``ignore`` are ``bad_request``\\ s,
    reported here (resolution time) rather than from inside the worker.
    """

    from repro.lint import LintConfigError, lint_options_token

    machine = resolve_target(request.target)
    function, profile = _resolve_program(request.program, request.profile, machine)
    try:
        token = lint_options_token(machine, request.select, request.ignore)
    except LintConfigError as exc:
        raise ProtocolError(str(exc)) from None
    return ResolvedLint(
        request=request,
        function=function,
        profile=profile,
        machine=machine,
        identity=_identity(request, function, profile, token, "lint"),
    )


def run_lint_request(resolved: ResolvedLint) -> Dict[str, Any]:
    """Execute a resolved lint request; returns the deterministic payload.

    The payload is exactly :meth:`repro.lint.LintReport.payload` — the
    same object the CLI's ``--json`` mode emits for the same inputs, which
    is what the byte-identity service tests compare against.
    """

    from repro.lint import lint_function

    report = lint_function(
        resolved.function,
        profile=resolved.profile,
        machine=resolved.machine,
        select=resolved.request.select,
        ignore=resolved.request.ignore,
    )
    return report.payload()


def compile_lint_rejection(resolved: ResolvedCompile) -> Optional[Dict[str, Any]]:
    """Apply a strict compile request's lint gate.

    Returns ``None`` when the procedure passes (or the request did not ask
    for linting); otherwise the structured rejection payload for a
    ``lint_rejected`` error — byte-identical to what
    :class:`repro.lint.LintError` carries for the same IR in the pipeline.
    """

    if resolved.request.lint != "strict":
        return None
    from repro.lint import lint_function, LintError

    report = lint_function(
        resolved.function, profile=resolved.profile, machine=resolved.machine
    )
    if not report.has_errors():
        return None
    return LintError([report]).payload()


# ---------------------------------------------------------------------------
# Responses.
# ---------------------------------------------------------------------------


def result_payload(
    identity: Union[CompileIdentity, ResolvedCompile],
    compiled: Union[CompileRecord, CompiledProcedure],
) -> Dict[str, Any]:
    """The deterministic ``result`` payload of one compile.

    Built from the request's :class:`CompileIdentity` (a
    :class:`ResolvedCompile` is reduced to its identity) and the
    :class:`CompileRecord` a direct
    :func:`~repro.pipeline.compiler.compile_many` returns (a
    :class:`CompiledProcedure` is reduced to its record first), and
    containing only deterministic quantities — overheads, fingerprints,
    structure counts — never timing.  This function *is* the bit-identity
    contract: the property tests compare the server's payload against one
    computed locally through this same function.
    """

    if isinstance(identity, ResolvedCompile):
        identity = identity.identity
    record = compiled.record if isinstance(compiled, CompiledProcedure) else compiled
    techniques_overhead: Dict[str, Any] = {}
    for technique in identity.techniques:
        overhead = record.overhead(technique)
        techniques_overhead[technique] = {
            "save_count": overhead.save_count,
            "restore_count": overhead.restore_count,
            "jump_count": overhead.jump_count,
            "num_jump_blocks": overhead.num_jump_blocks,
            "callee_saved_total": overhead.total,
            "total_overhead": record.total_overhead(technique),
        }
    return {
        "schema": RESULT_SCHEMA,
        "name": record.name,
        "target": identity.target,
        "cost_model": identity.cost_model,
        "techniques": list(identity.techniques),
        "fingerprints": {
            "function": identity.function_fingerprint,
            "profile": identity.profile_fingerprint,
            "cache_key": identity.cache_key,
        },
        "num_blocks": record.num_blocks,
        "num_instructions": record.num_instructions,
        "allocator_overhead": record.allocator_overhead,
        "techniques_overhead": techniques_overhead,
    }


@dataclass(frozen=True)
class CompileAnswer:
    """One server-side answer to a compile request, ready to serialize.

    ``result`` is the deterministic payload; ``pass_seconds`` the compile's
    pass timings (cold timings replayed on a cache hit); the remaining
    fields are per-request service metadata.
    """

    result: Dict[str, Any]
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    cache_status: str = "miss"
    coalesced: bool = False
    batch_size: int = 0
    queue_ms: float = 0.0
    compile_ms: float = 0.0

    def to_message(self, request_id: str) -> Dict[str, Any]:
        """The wire form of the response to request ``request_id``."""

        return {
            "type": "result",
            "id": request_id,
            "result": self.result,
            "timing": {
                "pass_seconds": dict(self.pass_seconds),
                "queue_ms": round(self.queue_ms, 3),
                "compile_ms": round(self.compile_ms, 3),
            },
            "service": {
                "cache": self.cache_status,
                "coalesced": self.coalesced,
                "batch_size": self.batch_size,
            },
        }


def lint_result_message(
    request_id: str,
    payload: Mapping[str, Any],
    cache_status: str = "miss",
    coalesced: bool = False,
) -> Dict[str, Any]:
    """The wire form of a lint response.

    Mirrors compile responses: the deterministic report under ``result``,
    service metadata (cache/coalesce status) outside it.
    """

    return {
        "type": "result",
        "id": request_id,
        "result": dict(payload),
        "service": {"cache": cache_status, "coalesced": coalesced},
    }


def response_result_bytes(response: Mapping[str, Any]) -> bytes:
    """Canonical bytes of a response's deterministic ``result`` payload.

    What "byte-identical" means precisely, everywhere it is asserted: two
    responses agree iff these bytes are equal.
    """

    return json.dumps(response["result"], sort_keys=True).encode("utf-8")
