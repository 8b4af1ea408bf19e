"""Shared fixtures for the compile-service test suite.

The serving tests run a *real* :class:`~repro.service.server.CompileServer`
on a background thread (via :class:`~repro.service.embedded.EmbeddedServer`)
and talk to it over actual sockets — no mocked transports — so the
admission, batching, coalescing and drain behaviour under test is exactly
what production connections see.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.pipeline.compiler import compile_many
from repro.service.embedded import EmbeddedServer
from repro.service.endpoint import PipelinedConnection
from repro.service.protocol import (
    parse_compile_request,
    resolve_compile_request,
    result_payload,
)
from repro.service.server import CompileServer

#: A small but non-trivial IR program used by inline-IR tests (one guarded
#: call-crossing region, so every technique places something).
SAMPLE_IR = """
func sample() {
entry:
  li v0, #5
  cmplt v1, v0, #3
  br v1, @merge
body:
  call @helper() -> (v2)
  add v3, v2, #1
  add v4, v2, #2
  call @helper2(v2)
  add v5, v3, v4
merge:
  li v6, #7
  ret v6
}
"""


@pytest.fixture
def embedded_server():
    """Factory fixture: ``embedded_server(**kwargs)`` yields a live server."""

    @contextmanager
    def factory(**kwargs):
        with EmbeddedServer(**kwargs) as server:
            yield server

    return factory


class CompileHold:
    """Keeps the server's compiler busy until the test releases it.

    Every batch that reaches the compiler sets :attr:`entered` and then
    waits for :attr:`release`.  While it waits, later misses stay queued
    and duplicates of an in-flight key wait on it, so a test can line up
    exactly the arrivals it wants before anything compiles.
    :attr:`admitted` counts the requests that have reached the in-flight
    table, each either queued (or compiling), rejected, or waiting on an
    in-flight duplicate.
    """

    def __init__(self, timeout: float = 60.0):
        self.timeout = timeout
        self.entered = threading.Event()
        self.release = threading.Event()
        self.admitted = 0

    def wait_entered(self) -> None:
        """Block until a batch is held in the compiler."""

        assert self.entered.wait(self.timeout), "no batch reached the compiler"

    def wait_admitted(self, count: int) -> None:
        """Block until ``count`` requests have reached the in-flight table."""

        deadline = time.monotonic() + self.timeout
        while self.admitted < count:
            assert time.monotonic() < deadline, (
                f"{self.admitted} of {count} requests admitted"
            )
            time.sleep(0.002)


@pytest.fixture
def compile_hold(monkeypatch):
    """A :class:`CompileHold` over every :class:`CompileServer` in the test.

    The hold is released on teardown, so a failing test cannot leave a
    server unable to drain.
    """

    hold = CompileHold()
    compile_groups = CompileServer._compile_groups
    coalesce = CompileServer._coalesce

    def held_compile_groups(server, grouped):
        hold.entered.set()
        hold.release.wait(hold.timeout)
        return compile_groups(server, grouped)

    async def counted_coalesce(server, key, produce):
        hold.admitted += 1
        return await coalesce(server, key, produce)

    monkeypatch.setattr(CompileServer, "_compile_groups", held_compile_groups)
    monkeypatch.setattr(CompileServer, "_coalesce", counted_coalesce)
    yield hold
    hold.release.set()


async def open_pipelined(port: int) -> PipelinedConnection:
    """A handshaken, id-demultiplexed connection to a local server or router."""

    return await PipelinedConnection.open("127.0.0.1", port, 60.0, label="server")


@pytest.fixture
def sample_ir():
    """The inline-IR sample program."""

    return SAMPLE_IR


def scenario_message(request_id: str, spec: str, target: str = "parisc"):
    """One scenario-registry compile message."""

    return {
        "type": "compile",
        "id": request_id,
        "program": {"scenario": spec},
        "target": target,
    }


def oracle_result_bytes(message) -> bytes:
    """The canonical result bytes a direct ``compile_many`` produces.

    The serial, in-process ground truth every served response must match
    byte-for-byte (the ISSUE's core invariant).
    """

    request = parse_compile_request(message)
    resolved = resolve_compile_request(request)
    compiled = compile_many(
        [(resolved.function, resolved.profile)],
        machine=request.target,
        cost_model=request.cost_model,
        techniques=list(request.techniques),
        verify=True,
    )[0]
    return json.dumps(result_payload(resolved, compiled), sort_keys=True).encode("utf-8")


@pytest.fixture
def oracle():
    """Fixture handle on :func:`oracle_result_bytes`."""

    return oracle_result_bytes
