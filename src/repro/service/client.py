"""The blocking compile-service client.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.protocol`, performs the version handshake on connect,
enforces per-request timeouts and retries ``overloaded`` rejections with
exponential backoff (the polite reaction to admission control: back off,
do not hammer).  Any other error response raises :class:`ServiceError`
with the server's code and message.  It is what tests, the CLI and simple
scripts use — one blocking request at a time per connection.  Code that
needs many requests in flight on one event loop (the load generator, the
fleet router) uses :class:`repro.service.endpoint.PipelinedConnection`.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CompileRequest,
    ProtocolError,
    decode_message,
    encode_message,
    hello_message,
    parse_hello,
)

#: How many times a compile is retried after an ``overloaded`` rejection.
DEFAULT_RETRIES = 4

#: First backoff sleep in seconds; doubles per retry.
DEFAULT_BACKOFF = 0.05


class ServiceError(RuntimeError):
    """An error response from the server (or a broken conversation).

    ``code`` is one of :data:`repro.service.protocol.ERROR_CODES` (or
    ``"transport"`` for connection-level failures).  ``diagnostics`` is
    the structured payload ``lint_rejected`` errors carry — the same
    lint-report object the CLI's ``--json`` mode prints — and ``None``
    for every other error.
    """

    def __init__(
        self, code: str, message: str, diagnostics: Optional[Mapping[str, Any]] = None
    ):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.detail = message
        self.diagnostics = dict(diagnostics) if diagnostics is not None else None


class OverloadedError(ServiceError):
    """The server's admission queue was full even after every retry."""


def check_hello_reply(message: Mapping[str, Any]) -> None:
    """Validate an endpoint's handshake reply (raises :class:`ServiceError`).

    The one check every connecting side makes: this blocking client and
    every :class:`~repro.service.endpoint.PipelinedConnection`.
    """

    if message.get("type") == "error":
        raise ServiceError(str(message.get("code")), str(message.get("message")))
    if message.get("type") != "hello":
        raise ServiceError("protocol", f"expected hello, got {message.get('type')!r}")
    try:
        version = parse_hello(message)
    except ProtocolError as exc:
        raise ServiceError("protocol", str(exc)) from None
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            "protocol",
            f"server speaks protocol {version}, client speaks {PROTOCOL_VERSION}",
        )


def _raise_for_error(response: Mapping[str, Any]) -> Mapping[str, Any]:
    """Pass a non-error response through; raise :class:`ServiceError` otherwise."""

    if response.get("type") == "error":
        code = str(response.get("code", "internal"))
        raise ServiceError(
            code, str(response.get("message", "")), response.get("diagnostics")
        )
    return response


def _program_field(
    ir: Optional[str], scenario: Optional[str], catalog: Optional[str]
) -> Dict[str, str]:
    """The ``program`` object for exactly one of ir/scenario/catalog."""

    given = [
        (key, value)
        for key, value in (("ir", ir), ("scenario", scenario), ("catalog", catalog))
        if value is not None
    ]
    if len(given) != 1:
        raise ValueError("pass exactly one of ir=, scenario= or catalog=")
    key, value = given[0]
    return {key: value}


def _compile_message(
    request_id: str,
    ir: Optional[str],
    scenario: Optional[str],
    target: str,
    cost_model: str,
    techniques: Optional[Sequence[str]],
    profile: Optional[Mapping[str, Any]],
    cache: str,
    lint: str = "off",
    catalog: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a compile message from keyword convenience arguments."""

    from repro.pipeline.compiler import TECHNIQUES

    program = _program_field(ir, scenario, catalog)
    request = CompileRequest(
        id=request_id,
        program=program,
        target=target,
        cost_model=cost_model,
        techniques=tuple(techniques) if techniques is not None else TECHNIQUES,
        profile=dict(profile) if profile is not None else None,
        cache=cache,
        lint=lint,
    )
    return request.to_message()


def _lint_message(
    request_id: str,
    ir: Optional[str],
    scenario: Optional[str],
    target: str,
    profile: Optional[Mapping[str, Any]],
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
    cache: str,
    catalog: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a lint message from keyword convenience arguments."""

    from repro.service.protocol import LintRequest

    program = _program_field(ir, scenario, catalog)
    request = LintRequest(
        id=request_id,
        program=program,
        target=target,
        profile=dict(profile) if profile is not None else None,
        select=tuple(select) if select is not None else None,
        ignore=tuple(ignore) if ignore is not None else None,
        cache=cache,
    )
    return request.to_message()


class ServiceClient:
    """A blocking, one-request-at-a-time compile-service client.

    Usable as a context manager; the connection and handshake happen in the
    constructor.  ``timeout`` bounds every send/receive; ``retries`` and
    ``backoff`` govern the reaction to ``overloaded`` rejections
    (``sleep`` is injectable for deterministic tests).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        sleep=time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep
        self._counter = 0
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._file = self._socket.makefile("rb")
        self._send(hello_message())
        check_hello_reply(self._receive())

    # -- plumbing -----------------------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection (idempotent)."""

        try:
            self._file.close()
        except OSError:  # pragma: no cover - best-effort close
            pass
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - best-effort close
            pass

    def _next_id(self) -> str:
        self._counter += 1
        return f"r{self._counter}"

    def _send(self, message: Mapping[str, Any]) -> None:
        try:
            self._socket.sendall(encode_message(message))
        except OSError as exc:
            raise ServiceError("transport", f"send failed: {exc}") from None

    def _receive(self) -> Dict[str, Any]:
        try:
            line = self._file.readline(MAX_FRAME_BYTES + 1024)
        except (OSError, socket.timeout) as exc:
            raise ServiceError("transport", f"receive failed: {exc}") from None
        if not line:
            raise ServiceError("transport", "server closed the connection")
        try:
            return decode_message(line)
        except ProtocolError as exc:
            raise ServiceError("protocol", str(exc)) from None

    def _roundtrip(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        self._send(message)
        return self._receive()

    # -- requests -----------------------------------------------------------------

    def compile(
        self,
        ir: Optional[str] = None,
        scenario: Optional[str] = None,
        target: str = "parisc",
        cost_model: str = "jump_edge",
        techniques: Optional[Sequence[str]] = None,
        profile: Optional[Mapping[str, Any]] = None,
        cache: str = "use",
        lint: str = "off",
        request_id: Optional[str] = None,
        catalog: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Compile one program; returns the full ``result`` response message.

        Retries ``overloaded`` rejections up to ``retries`` times with
        exponential backoff, then raises :class:`OverloadedError`.  Other
        error responses raise :class:`ServiceError` immediately —
        ``lint="strict"`` rejections as a ``lint_rejected`` error whose
        ``diagnostics`` attribute carries the structured report.
        ``catalog=`` takes a workload-catalog reference
        (``catalog:<name>[:<seed>[:<index>]]``) instead of inline IR or a
        scenario reference.
        """

        message = _compile_message(
            request_id or self._next_id(),
            ir,
            scenario,
            target,
            cost_model,
            techniques,
            profile,
            cache,
            lint,
            catalog,
        )
        return self.send_compile_message(message)

    def lint(
        self,
        ir: Optional[str] = None,
        scenario: Optional[str] = None,
        target: str = "parisc",
        profile: Optional[Mapping[str, Any]] = None,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
        cache: str = "use",
        request_id: Optional[str] = None,
        catalog: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Lint one program; returns the full lint ``result`` response.

        The ``result`` field is byte-identical to a local
        :func:`repro.lint.lint_function` report payload for the same
        inputs (same determinism contract as compiles).
        """

        message = _lint_message(
            request_id or self._next_id(),
            ir,
            scenario,
            target,
            profile,
            select,
            ignore,
            cache,
            catalog,
        )
        return self.send_compile_message(message)

    def send_compile_message(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Send a prebuilt compile message with the retry-on-overloaded loop."""

        last: Optional[Mapping[str, Any]] = None
        for attempt in range(self.retries + 1):
            response = self._roundtrip(message)
            if response.get("type") == "error" and response.get("code") == "overloaded":
                last = response
                if attempt < self.retries:
                    self._sleep(self.backoff * (2**attempt))
                continue
            return dict(_raise_for_error(response))
        raise OverloadedError("overloaded", str(last.get("message", "")))

    def stats(self) -> Dict[str, Any]:
        """Fetch the server's metrics snapshot."""

        response = _raise_for_error(self._roundtrip({"type": "stats", "id": self._next_id()}))
        return dict(response["stats"])

    def metrics_text(self) -> str:
        """Fetch the ``metrics-text/v1`` plaintext rendering of the stats.

        The Prometheus-style scrape endpoint: the returned string is
        byte-deterministic given the server's snapshot (see
        :func:`repro.service.health.render_metrics_text`).
        """

        response = _raise_for_error(
            self._roundtrip({"type": "metrics", "id": self._next_id()})
        )
        if response.get("type") != "metrics" or not isinstance(
            response.get("text"), str
        ):
            raise ServiceError(
                "protocol", f"expected a metrics response, got {response.get('type')!r}"
            )
        return response["text"]

    def shutdown(self) -> None:
        """Ask the server to drain gracefully."""

        _raise_for_error(self._roundtrip({"type": "shutdown", "id": self._next_id()}))
