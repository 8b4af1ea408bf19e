"""The JSON-lines connection core every service endpoint and link shares.

Two halves of one wire discipline (:mod:`repro.service.protocol`):

* :class:`JsonLinesEndpoint` — the accepting side.  It owns framing (the
  :data:`~repro.service.protocol.MAX_FRAME_BYTES` read limit, bad-JSON and
  oversized-frame answers), the ``hello`` handshake with its version
  check, the bounded per-connection write, the ``stats``/``metrics``/
  ``shutdown`` admin requests, request accounting, the request-resolution
  memo (:class:`ResolveMemo`), in-flight coalescing (one ``produce()`` per
  key in flight), signal handling and the graceful-drain skeleton.
  :class:`~repro.service.server.CompileServer` and
  :class:`~repro.service.fleet.FleetRouter` subclass it and keep only what
  is theirs: ``describe()``, ``stats_snapshot_async()``, a drain hook and
  ``_handle_request``.
* :class:`PipelinedConnection` — the connecting side.  One socket carrying
  many requests in flight, each reply routed to its request's future by
  ``id``, opened with the same ``hello`` the blocking client sends.  The
  router's shard links and the load generator's connections are both one
  of these.
"""

from __future__ import annotations

import asyncio
import hashlib
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.service.client import check_hello_reply
from repro.service.health import METRICS_TEXT_SCHEMA, render_metrics_text
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CompileIdentity,
    ProtocolError,
    decode_message,
    encode_message,
    error_message,
    hello_message,
    parse_compile_request,
    parse_hello,
    parse_lint_request,
)

#: Bound on one response write.  A client that stops reading fills its
#: transport buffer and would otherwise block ``writer.drain()`` forever —
#: keeping its requests "active" and wedging a graceful drain.  Past this
#: deadline the connection is closed instead.
SEND_TIMEOUT_SECONDS = 30.0

#: Stream-reader limit: one maximal frame plus slack for the newline.
STREAM_LIMIT = MAX_FRAME_BYTES + 1024

#: Request types answered concurrently (one task each) per connection.
WORK_TYPES = ("compile", "lint")

#: Request types the endpoint core answers inline.
ADMIN_TYPES = ("stats", "metrics", "shutdown")

_PARSERS = {"compile": parse_compile_request, "lint": parse_lint_request}

#: Entries kept in an endpoint's resolution memo (resolution is real CPU
#: work; repeated requests — the common case under load — skip it).
RESOLVE_MEMO_ENTRIES = 4096


class FrameOverflow(ProtocolError):
    """A frame beyond the stream limit: the stream cannot be re-synchronized."""

    def __init__(self) -> None:
        super().__init__(
            f"frame exceeds {MAX_FRAME_BYTES} bytes or the stream is malformed; "
            "closing",
            code="protocol",
        )


def string_id(message: Dict[str, Any]) -> Optional[str]:
    """The message's ``id`` if it is a string (the only kind ever echoed)."""

    request_id = message.get("id")
    return request_id if isinstance(request_id, str) else None


def may_answer_from_cache(request: Any) -> bool:
    """Whether ``request`` may be answered with an identical request's answer.

    Only a ``cache: "use"`` request may, and a strict-linted compile must
    reach the lint gate, which needs its own IR.  The server memoizes
    exactly these requests' resolutions; the router looks exactly these up
    in the shared tier, coalesces them and fills the tier with their
    answers.
    """

    return request.cache == "use" and getattr(request, "lint", "off") == "off"


def _check_admin_fields(message: Dict[str, Any], kind: str) -> None:
    """Strictly validate a ``stats``/``metrics``/``shutdown`` message (``id`` only)."""

    unknown = sorted(set(message) - {"type", "id"})
    if unknown:
        raise ProtocolError(
            f"{kind} request has unknown field(s): {', '.join(unknown)}"
        )
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError(f"{kind} request 'id' must be a string")


class ResolveMemo:
    """A bounded LRU from request signature to :class:`CompileIdentity`.

    Resolution is deterministic, so two requests with one signature (the
    request minus its ``id``) resolve to one identity.  Keys are SHA-256
    digests of the signature, so an inline-IR request costs the memo 64
    bytes of key however large its program; values are identities, never
    IR.  Signatures carry the message ``type`` field, so a compile and a
    lint of the same program never alias.  Only the event loop touches it,
    so it takes no lock.
    """

    def __init__(self, max_entries: int = RESOLVE_MEMO_ENTRIES):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CompileIdentity]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(request: Any) -> str:
        return hashlib.sha256(request.signature().encode("utf-8")).hexdigest()

    def get(self, request: Any) -> Optional[CompileIdentity]:
        """The memoized identity of ``request``, or None (counted as a miss)."""

        key = self._key(request)
        identity = self._entries.get(key)
        if identity is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return identity

    def put(self, request: Any, identity: CompileIdentity) -> None:
        """Remember ``request``'s identity, evicting the least recent past the bound."""

        self._entries[self._key(request)] = identity
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def snapshot(self) -> Dict[str, int]:
        """The ``resolve_memo`` section of a stats snapshot."""

        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(eq=False)
class Connection:
    """One accepted connection: its streams, write lock and handshake state."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    greeted: bool = False

    async def read_message(self) -> Optional[Dict[str, Any]]:
        """The next non-blank frame, decoded; None at EOF or reset.

        Raises :class:`FrameOverflow` for an over-limit frame and
        :class:`ProtocolError` for one that is not a JSON object.
        """

        while True:
            try:
                line = await self.reader.readline()
            except ConnectionResetError:
                return None
            except (ValueError, asyncio.IncompleteReadError):
                # ``readline`` reports an over-limit line as ValueError (it
                # wraps LimitOverrunError).
                raise FrameOverflow() from None
            if not line:
                return None
            if line.strip():
                return decode_message(line)

    async def send(self, message: Dict[str, Any]) -> None:
        """Serialize and write one message under the connection's lock.

        Bounded: a peer that stops reading cannot block the endpoint —
        after :data:`SEND_TIMEOUT_SECONDS` the connection is closed and the
        write abandoned (the request still counts as finished, so a stuck
        client can never wedge a graceful drain).
        """

        payload = encode_message(message)
        async with self.write_lock:
            try:
                self.writer.write(payload)
                await asyncio.wait_for(self.writer.drain(), timeout=SEND_TIMEOUT_SECONDS)
            except asyncio.TimeoutError:
                self.close()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def close(self) -> None:
        """Close the transport (best-effort, idempotent)."""

        try:
            self.writer.close()
        except Exception:  # pragma: no cover - best-effort close
            pass


class JsonLinesEndpoint:
    """The accepting half of the protocol, shared by server and router.

    Subclasses set :attr:`role` (the word the version-mismatch error
    names) and :attr:`draining_text`, own a ``metrics`` object with the
    ``received``/``completed``/``errors``/``protocol_errors``/
    ``rejected_shutting_down`` counters and a ``latency_ms`` histogram
    plus a ``health`` monitor, and implement :meth:`describe`,
    :meth:`stats_snapshot_async`, :meth:`health_tick`, :meth:`_drain_hook`
    and :meth:`_handle_request`.
    """

    #: The endpoint's name in handshake errors ("... server speaks 1").
    role: str
    #: The ``shutting_down`` error text for work arriving during a drain.
    draining_text: str

    def __init__(self, host: str, port: int, health_interval: float):
        if health_interval <= 0:
            raise ValueError(f"health_interval must be > 0, got {health_interval!r}")
        self.host = host
        self.port = port
        self.health_interval = health_interval
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        #: Loop tasks the drain cancels once the endpoint is idle.
        self._background: List[asyncio.Task] = []
        self._draining = False
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = asyncio.Event()
        self.resolve_memo = ResolveMemo()
        #: Unique work in flight, by coalesce key (see :meth:`_coalesce`).
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}

    # -- hooks ---------------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        """The info dict sent in the handshake ``hello``."""

        raise NotImplementedError

    async def stats_snapshot_async(self) -> Dict[str, Any]:  # pragma: no cover
        """The snapshot ``stats`` and ``metrics`` requests are answered from."""

        raise NotImplementedError

    def health_tick(self) -> Any:  # pragma: no cover - abstract
        """One health tick, run every ``health_interval`` seconds."""

        raise NotImplementedError

    async def _drain_hook(self) -> None:
        """Endpoint-specific drain work, run once no request is active."""

    async def _handle_request(
        self, connection: Connection, message: Dict[str, Any], kind: str
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------------

    async def _listen(self) -> None:
        """Bind the client listener and start the health loop."""

        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=STREAM_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._background.append(asyncio.ensure_future(self._health_loop()))

    async def _health_loop(self) -> None:
        while not self._draining:
            await asyncio.sleep(self.health_interval)
            if self._draining:
                return
            self.health_tick()

    async def serve_forever(self) -> None:
        """Block until the endpoint has fully drained and closed."""

        await self._closed.wait()

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (POSIX event loops only)."""

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    def request_drain(self) -> None:
        """Schedule a graceful drain from synchronous context (signal-safe)."""

        asyncio.ensure_future(self.drain())

    async def drain(self) -> None:
        """Stop admitting, finish every active request, close everything.

        Idempotent: concurrent callers all wait for the same shutdown to
        complete.
        """

        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            # Stop accepting.  ``wait_closed`` is deliberately NOT awaited
            # here: on Python >= 3.12 it blocks until every accepted
            # connection has finished, so awaiting it before we close the
            # client connections below would deadlock against any idle
            # client that simply stays connected.
            self._server.close()
        await self._idle.wait()
        await self._drain_hook()
        for task in self._background:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        for connection in list(self._connections):
            connection.close()
        if self._server is not None:
            try:
                # All transports are closed now, so this resolves promptly;
                # the timeout is a belt against handler stragglers.
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        self._closed.set()

    @property
    def draining(self) -> bool:
        """Whether the endpoint has begun a graceful drain."""

        return self._draining

    # -- request bookkeeping -------------------------------------------------------

    def _request_started(self) -> None:
        self.metrics.received += 1
        self._active_requests += 1
        self._idle.clear()

    def _request_finished(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    def _protocol_error(self) -> None:
        self.metrics.protocol_errors += 1
        self.metrics.errors += 1

    def _complete(self, arrived: float) -> None:
        """Account a request answered with a result."""

        self.metrics.completed += 1
        latency_ms = (time.monotonic() - arrived) * 1000.0
        self.metrics.latency_ms.record(latency_ms)
        self.health.observe_latency(latency_ms)

    async def _resolve_identity(
        self, request: Any, resolver: Callable[[Any], Any], memoize: bool = True
    ) -> Tuple[CompileIdentity, Any]:
        """``(identity, resolved)`` for ``request``, through the memo.

        A memo hit answers on the event loop as ``(identity, None)``: no
        thread hop and no IR.  Otherwise ``resolver`` (IR parsing, scenario
        generation and fingerprinting are real CPU work) runs in a thread
        and its full resolution comes back with its identity, which the
        memo keeps.  ``memoize=False`` always resolves and leaves the memo
        alone.
        """

        if memoize:
            identity = self.resolve_memo.get(request)
            if identity is not None:
                return identity, None
        resolved = await asyncio.to_thread(resolver, request)
        if memoize:
            self.resolve_memo.put(request, resolved.identity)
        return resolved.identity, resolved

    async def _admit(
        self,
        message: Dict[str, Any],
        kind: str,
        resolve: Callable[[Any], Awaitable[Any]],
    ) -> Tuple[Any, Any, Optional[Dict[str, Any]]]:
        """Parse, resolve and admit one compile/lint request.

        Returns ``(request, resolved, None)`` for admitted work, or
        ``(None, None, error)`` with the error reply already accounted.
        """

        request_id = string_id(message)
        try:
            request = _PARSERS[kind](message)
            request_id = request.id
            resolved = await resolve(request)
        except ProtocolError as exc:
            self._protocol_error()
            return None, None, error_message(exc.code, str(exc), request_id)
        except Exception as exc:
            # A resolution bug must answer the request, not strand the
            # client until its timeout.
            self.metrics.errors += 1
            return None, None, error_message(
                "internal",
                f"request resolution failed: {type(exc).__name__}: {exc}",
                request_id,
            )
        if self._draining:
            self.metrics.rejected_shutting_down += 1
            self.metrics.errors += 1
            return None, None, error_message(
                "shutting_down", self.draining_text, request_id
            )
        return request, resolved, None

    async def _coalesce(
        self, key: str, produce: Callable[[], Awaitable[Any]]
    ) -> Tuple[Any, bool]:
        """``(answer, coalesced)`` with one ``produce()`` per key in flight.

        The first request for a key runs ``produce``; every identical
        request arriving before it finishes awaits the same answer, or the
        same exception, instead of producing it again.  The key leaves the
        table only once ``produce`` has returned, so whatever ``produce``
        stores before returning (a cache entry, a tier entry) is in place
        before a later duplicate can miss the table.
        """

        future = self._inflight.get(key)
        if future is not None:
            return await future, True
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            future.set_result(await produce())
        except Exception as exc:
            future.set_exception(exc)
        finally:
            self._inflight.pop(key, None)
            if not future.done():
                future.cancel()
        return await future, False

    # -- the connection handler ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = Connection(reader=reader, writer=writer)
        self._connections.add(connection)
        # Completed tasks discard themselves: a long-lived connection must
        # not accumulate one Task object per request it ever served.
        tasks: set = set()
        try:
            while True:
                try:
                    message = await connection.read_message()
                except ProtocolError as exc:
                    self._protocol_error()
                    await connection.send(error_message(exc.code, str(exc)))
                    if isinstance(exc, FrameOverflow):
                        break
                    continue
                if message is None:
                    break
                if not connection.greeted:
                    if not await self._handshake(connection, message):
                        break
                    continue
                kind = message.get("type")
                if kind in WORK_TYPES:
                    # Handled concurrently so one long compile does not
                    # stall pipelined requests on the same connection.
                    task = asyncio.ensure_future(
                        self._handle_request(connection, message, kind)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif kind in ADMIN_TYPES:
                    await self._handle_admin(connection, message, kind)
                else:
                    self._protocol_error()
                    await connection.send(
                        error_message(
                            "bad_request",
                            f"unknown message type {kind!r}",
                            string_id(message),
                        )
                    )
        except ConnectionResetError:  # pragma: no cover - peer vanished
            pass
        finally:
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            self._connections.discard(connection)
            connection.close()

    async def _handshake(self, connection: Connection, message: Dict[str, Any]) -> bool:
        """Process the first client message; returns False to drop the link."""

        try:
            if message.get("type") != "hello":
                raise ProtocolError(
                    "first message must be a 'hello' handshake", code="protocol"
                )
            version = parse_hello(message)
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client speaks {version}, "
                    f"{self.role} speaks {PROTOCOL_VERSION}",
                    code="protocol",
                )
        except ProtocolError as exc:
            self._protocol_error()
            await connection.send(error_message("protocol", str(exc)))
            return False
        connection.greeted = True
        await connection.send(hello_message(server_info=self.describe()))
        return True

    async def _handle_admin(
        self, connection: Connection, message: Dict[str, Any], kind: str
    ) -> None:
        """Answer one ``stats``/``metrics``/``shutdown`` request inline."""

        try:
            _check_admin_fields(message, kind)
        except ProtocolError as exc:
            self._protocol_error()
            await connection.send(
                error_message("bad_request", str(exc), string_id(message))
            )
            return
        request_id = message.get("id")
        if kind == "shutdown":
            await connection.send({"type": "ok", "id": request_id})
            self.request_drain()
            return
        stats = await self.stats_snapshot_async()
        if kind == "stats":
            await connection.send({"type": "stats", "id": request_id, "stats": stats})
        else:
            await connection.send(
                {
                    "type": "metrics",
                    "id": request_id,
                    "schema": METRICS_TEXT_SCHEMA,
                    "text": render_metrics_text(stats),
                }
            )


class PipelinedConnection:
    """One client connection with many id-matched requests in flight.

    A reader task routes every reply to the pending future registered
    under its ``id``; frames that do not decode or match nothing are
    counted in :attr:`stray_frames`.  :attr:`last_progress` is reset when
    work starts on an idle connection and whenever a frame arrives.
    :meth:`close` is idempotent: it fails every pending request with
    ``ConnectionError(reason)`` and fires ``on_close(reason)`` once.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        label: str,
        on_close: Optional[Callable[[str], None]] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.label = label
        self.stray_frames = 0
        self.last_progress = time.monotonic()
        #: Why the connection closed; None while it is open.
        self.closed: Optional[str] = None
        self._on_close = on_close
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        timeout: float,
        label: str,
        on_close: Optional[Callable[[str], None]] = None,
    ) -> "PipelinedConnection":
        """Connect, send ``hello``, validate the reply, start demultiplexing.

        A rejected handshake (:func:`~repro.service.client.check_hello_reply`
        raises :class:`~repro.service.client.ServiceError`) closes the
        socket and propagates.  ``label`` names the remote side in close
        reasons ("shard connection closed").
        """

        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=STREAM_LIMIT), timeout=timeout
        )
        try:
            writer.write(encode_message(hello_message()))
            await asyncio.wait_for(writer.drain(), timeout=timeout)
            check_hello_reply(
                decode_message(await asyncio.wait_for(reader.readline(), timeout=timeout))
            )
        except BaseException:
            writer.close()
            raise
        return cls(reader, writer, label, on_close)

    @property
    def pending_count(self) -> int:
        """Requests awaiting a reply."""

        return len(self._pending)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send ``message`` and await the reply carrying its ``id``.

        The id must be unique among pending requests.  Raises
        ``ConnectionError`` if the connection is or goes down first.
        """

        if self.closed is not None:
            raise ConnectionError(self.closed)
        request_id = message["id"]
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        if not self._pending:
            self.last_progress = time.monotonic()
        self._pending[request_id] = future
        try:
            try:
                async with self._write_lock:
                    self.writer.write(encode_message(message))
                    await asyncio.wait_for(
                        self.writer.drain(), timeout=SEND_TIMEOUT_SECONDS
                    )
            except Exception:
                reason = f"write to {self.label} failed"
                self._pending.pop(request_id, None)
                self.close(reason)
                raise ConnectionError(reason) from None
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _read_loop(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except ConnectionResetError:
                break
            except ValueError:
                # Over-limit frame: the stream cannot be re-synchronized.
                self.stray_frames += 1
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                message = decode_message(line)
            except ProtocolError:
                self.stray_frames += 1
                continue
            self.last_progress = time.monotonic()
            future = self._pending.pop(message.get("id"), None)
            if future is None or future.done():
                self.stray_frames += 1
                continue
            future.set_result(message)
        self.close(f"{self.label} connection closed")

    def close(self, reason: str) -> None:
        """Tear the connection down (idempotent): fail pending, notify once."""

        if self.closed is not None:
            return
        self.closed = reason
        if self._reader_task is not asyncio.current_task():
            self._reader_task.cancel()
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - best-effort close
            pass
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionError(reason))
        if self._on_close is not None:
            self._on_close(reason)
