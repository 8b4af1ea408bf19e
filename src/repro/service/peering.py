"""The cache-peering protocol: a versioned ``cache-get``/``cache-put`` tier.

This is the fleet's shared cache plane (:mod:`repro.service.fleet`): every
backend shard that finishes a compile **puts** the deterministic answer
into one shared tier, and every shard (and the router itself) can **get**
it back — one shard's compile becomes every shard's cache hit.

The protocol is a peer-to-peer extension of the JSON-lines wire format of
:mod:`repro.service.protocol`, versioned independently
(:data:`PEERING_VERSION`): a connection opens with a ``peer-hello``
handshake, then carries ``cache-get`` / ``cache-put`` frames answered by
``cache-hit`` / ``cache-miss`` / ``cache-ok``.  Entries are keyed by the
full :func:`~repro.ir.fingerprint.procedure_cache_key` — a content
address, so a put can never poison a different request's answer — and the
stored value is the *deterministic* part of a compile response (the
``result`` payload plus the cold ``pass_seconds``), exactly what
:class:`~repro.service.protocol.CompileAnswer` needs to answer a request
without compiling.

Peering is an optimization, never a correctness dependency: every client
here treats a dead, slow or protocol-mismatched peer as a cache **miss**
(with a cooldown before reconnecting), and the serving path continues by
compiling locally.  Determinism makes that safe — a tier entry and a local
compile of the same key are byte-identical by construction.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.service.endpoint import Connection, FrameOverflow, PipelinedConnection
from repro.service.protocol import ProtocolError

#: Bump on any incompatible change to the peering frames; the ``peer-hello``
#: handshake rejects mismatched peers instead of misreading their frames.
PEERING_VERSION = 1

#: Frame types a peering connection may carry after the handshake.
PEERING_FRAME_TYPES = ("cache-get", "cache-put", "cache-hit", "cache-miss", "cache-ok")

#: Default bound on tier entries held in memory (LRU beyond it).  Entries
#: are small JSON payloads (a few KB), so the default bounds the tier to
#: tens of MB.
DEFAULT_TIER_ENTRIES = 65536

#: Seconds a peer client stays disabled after a transport failure before
#: it tries to reconnect; while disabled every lookup is a miss.
PEER_RETRY_SECONDS = 5.0

#: Bound on one peer round trip; slower than this and the shard compiles
#: locally instead of waiting (a slow tier must not add tail latency).
PEER_TIMEOUT_SECONDS = 5.0


def parse_peer_address(spec: str) -> Tuple[str, int]:
    """Parse a ``host:port`` peer address (as passed to ``serve --peer``)."""

    host, separator, port_text = str(spec).rpartition(":")
    if not separator or not host:
        raise ValueError(f"peer address must be 'host:port', got {spec!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"peer address port must be an integer, got {spec!r}")
    if not 0 < port < 65536:
        raise ValueError(f"peer address port out of range: {spec!r}")
    return host, port


def peer_hello_message() -> Dict[str, Any]:
    """Build the ``peer-hello`` handshake frame (both directions)."""

    return {"type": "peer-hello", "peering": PEERING_VERSION}


def parse_peer_hello(message: Mapping[str, Any]) -> int:
    """Validate a ``peer-hello``; returns the peer's peering version."""

    if message.get("type") != "peer-hello":
        raise ProtocolError(
            "first peering frame must be a 'peer-hello' handshake", code="protocol"
        )
    unknown = sorted(set(message) - {"type", "peering", "peer"})
    if unknown:
        raise ProtocolError(
            f"peer-hello has unknown field(s): {', '.join(unknown)}", code="protocol"
        )
    version = message.get("peering")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError("peer-hello 'peering' must be an integer", code="protocol")
    return version


def cache_get_message(request_id: str, key: str) -> Dict[str, Any]:
    """Build a ``cache-get`` frame for ``key``."""

    return {"type": "cache-get", "id": request_id, "key": key}


def cache_put_message(
    request_id: str, key: str, entry: Mapping[str, Any]
) -> Dict[str, Any]:
    """Build a ``cache-put`` frame storing ``entry`` under ``key``."""

    return {"type": "cache-put", "id": request_id, "key": key, "entry": dict(entry)}


def validate_entry(entry: Any) -> Dict[str, Any]:
    """Strictly validate one tier entry (the deterministic answer payload).

    An entry is ``{"result": <object>, "pass_seconds": <object>}`` — the
    two pieces a :class:`~repro.service.protocol.CompileAnswer` replays on
    a hit.  Anything else is a :class:`ProtocolError`.
    """

    if not isinstance(entry, Mapping):
        raise ProtocolError("peering entry must be an object")
    unknown = sorted(set(entry) - {"result", "pass_seconds"})
    if unknown:
        raise ProtocolError(f"peering entry has unknown field(s): {', '.join(unknown)}")
    result = entry.get("result")
    if not isinstance(result, Mapping):
        raise ProtocolError("peering entry 'result' must be an object")
    pass_seconds = entry.get("pass_seconds", {})
    if not isinstance(pass_seconds, Mapping):
        raise ProtocolError("peering entry 'pass_seconds' must be an object")
    return {"result": dict(result), "pass_seconds": dict(pass_seconds)}


def parse_peering_frame(message: Mapping[str, Any]) -> Tuple[str, str, str, Any]:
    """Validate one post-handshake peering frame.

    Returns ``(type, id, key, entry)`` where ``entry`` is only non-None
    for ``cache-put``/``cache-hit`` frames.
    """

    kind = message.get("type")
    if kind not in PEERING_FRAME_TYPES:
        raise ProtocolError(f"unknown peering frame type {kind!r}")
    allowed = {"type", "id", "key"}
    if kind in ("cache-put", "cache-hit"):
        allowed.add("entry")
    if kind == "cache-ok":
        allowed.add("stored")
    unknown = sorted(set(message) - allowed)
    if unknown:
        raise ProtocolError(f"{kind} frame has unknown field(s): {', '.join(unknown)}")
    request_id = message.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError(f"{kind} frame 'id' must be a non-empty string")
    key = message.get("key", "")
    if kind != "cache-ok" and (not isinstance(key, str) or not key):
        raise ProtocolError(f"{kind} frame 'key' must be a non-empty string")
    entry = None
    if kind in ("cache-put", "cache-hit"):
        entry = validate_entry(message.get("entry"))
    return kind, request_id, str(key), entry


# ---------------------------------------------------------------------------
# The shared tier.
# ---------------------------------------------------------------------------


@dataclass
class TierStats:
    """Counters of one :class:`SharedCacheTier` (per process, not persisted)."""

    gets: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    stored: int = 0
    duplicate_puts: int = 0
    evictions: int = 0
    protocol_errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of gets answered from the tier (0.0 with no gets)."""

        return self.hits / self.gets if self.gets else 0.0


class SharedCacheTier:
    """The in-memory shared cache tier the router hosts for its shards.

    A bounded LRU mapping of cache key → entry.  Single-threaded by
    design: the router only touches it from its event loop (the peering
    server below and the router's own admission-time lookups run on the
    same loop), so no locking is needed.  Entries are treated as
    immutable; duplicate puts of a key are idempotent by determinism
    (same key ⇒ same bytes) and only counted.
    """

    def __init__(self, max_entries: int = DEFAULT_TIER_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.stats = TierStats()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry stored under ``key``, or None (counted either way)."""

        self.stats.gets += 1
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: str, entry: Mapping[str, Any]) -> bool:
        """Store ``entry`` under ``key``; returns False for a duplicate."""

        self.stats.puts += 1
        if key in self._entries:
            self.stats.duplicate_puts += 1
            self._entries.move_to_end(key)
            return False
        self._entries[key] = dict(entry)
        self.stats.stored += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable view of the tier (for fleet stats)."""

        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "gets": self.stats.gets,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": round(self.stats.hit_rate, 4),
            "puts": self.stats.puts,
            "stored": self.stats.stored,
            "duplicate_puts": self.stats.duplicate_puts,
            "evictions": self.stats.evictions,
            "protocol_errors": self.stats.protocol_errors,
        }


async def serve_peering_connection(
    tier: SharedCacheTier,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one peering connection against ``tier`` until EOF.

    The handler the router mounts on its peering port: ``peer-hello``
    handshake (version-checked), then ``cache-get``/``cache-put`` frames.
    Protocol violations are answered with an ``error`` frame and, for
    handshake violations, the connection is dropped — exactly the posture
    of the main protocol.  Framing and the bounded write are the endpoint
    core's (:class:`~repro.service.endpoint.Connection`).
    """

    connection = Connection(reader=reader, writer=writer)
    try:
        while True:
            try:
                message = await connection.read_message()
                if message is None:
                    break
                if not connection.greeted:
                    version = parse_peer_hello(message)
                    if version != PEERING_VERSION:
                        raise ProtocolError(
                            f"peering version mismatch: peer speaks {version}, "
                            f"tier speaks {PEERING_VERSION}",
                            code="protocol",
                        )
                    connection.greeted = True
                    await connection.send(peer_hello_message())
                    continue
                kind, request_id, key, entry = parse_peering_frame(message)
            except FrameOverflow:
                break
            except ProtocolError as exc:
                tier.stats.protocol_errors += 1
                await connection.send(
                    {"type": "error", "code": exc.code, "message": str(exc)}
                )
                if exc.code == "protocol":
                    break
                continue
            if kind == "cache-get":
                found = tier.get(key)
                if found is None:
                    response: Dict[str, Any] = {
                        "type": "cache-miss",
                        "id": request_id,
                        "key": key,
                    }
                else:
                    response = {
                        "type": "cache-hit",
                        "id": request_id,
                        "key": key,
                        "entry": found,
                    }
            elif kind == "cache-put":
                stored = tier.put(key, entry)
                response = {"type": "cache-ok", "id": request_id, "stored": stored}
            else:
                # A client-side frame type sent to the tier.
                tier.stats.protocol_errors += 1
                response = {
                    "type": "error",
                    "code": "bad_request",
                    "message": f"tier does not accept {kind!r} frames",
                }
            await connection.send(response)
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# The shard-side client.
# ---------------------------------------------------------------------------


def _check_peer_hello(reply: Dict[str, Any]) -> None:
    if parse_peer_hello(reply) != PEERING_VERSION:
        raise ProtocolError("peering version mismatch", code="protocol")


class PeerCacheClient:
    """A shard's connection to the shared tier (lazy, failure-tolerant).

    Lives on the shard server's event loop.  The connection is opened on
    first use and re-opened after :data:`PEER_RETRY_SECONDS` following any
    transport failure; while the peer is unreachable every :meth:`get` is
    a miss and every :meth:`put` a no-op.  Requests are id-demultiplexed
    (:class:`~repro.service.endpoint.PipelinedConnection`), so concurrent
    gets and puts share one connection without blocking each other.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = PEER_TIMEOUT_SECONDS,
        retry_seconds: float = PEER_RETRY_SECONDS,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_seconds = retry_seconds
        self.gets = 0
        self.hits = 0
        self.puts = 0
        self.errors = 0
        self._counter = 0
        self._connection: Optional[PipelinedConnection] = None
        self._disabled_until = 0.0
        self._connect_lock = asyncio.Lock()

    @property
    def _writer(self) -> Optional[asyncio.StreamWriter]:
        return self._connection.writer if self._connection is not None else None

    def _next_id(self) -> str:
        self._counter += 1
        return f"p{self._counter}"

    async def _connected(self) -> Optional[PipelinedConnection]:
        """The open connection (handshake included), or None in cooldown."""

        async with self._connect_lock:
            if self._connection is None and time.monotonic() >= self._disabled_until:
                try:
                    self._connection = await PipelinedConnection.open(
                        self.host,
                        self.port,
                        peer_hello_message(),
                        _check_peer_hello,
                        self.timeout,
                        label="peer",
                        on_close=self._lost,
                    )
                except Exception:
                    self.errors += 1
                    self._disabled_until = time.monotonic() + self.retry_seconds
            return self._connection

    def _lost(self, _reason: str) -> None:
        """Connection-close callback: forget it and start the cooldown."""

        self._connection = None
        self._disabled_until = time.monotonic() + self.retry_seconds

    async def _roundtrip(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One frame out, the matching frame back; None on any failure."""

        connection = await self._connected()
        if connection is None:
            return None
        try:
            return await asyncio.wait_for(connection.request(message), self.timeout)
        except Exception:
            self.errors += 1
            connection.close("peer round trip failed")
            return None

    async def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch the tier entry for ``key``; None on a miss *or* any failure."""

        self.gets += 1
        response = await self._roundtrip(cache_get_message(self._next_id(), key))
        if response is None or response.get("type") != "cache-hit":
            return None
        try:
            entry = validate_entry(response.get("entry"))
        except ProtocolError:
            self.errors += 1
            return None
        self.hits += 1
        return entry

    async def put(self, key: str, entry: Mapping[str, Any]) -> None:
        """Publish ``entry`` under ``key`` (best-effort, never raises)."""

        self.puts += 1
        await self._roundtrip(cache_put_message(self._next_id(), key, entry))

    async def close(self) -> None:
        """Close the connection (idempotent)."""

        if self._connection is not None:
            self._connection.close("peer client closed")
        # Closing is deliberate: do not serve a cooldown for it.
        self._disabled_until = 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Counters for the shard's stats snapshot."""

        return {
            "host": self.host,
            "port": self.port,
            "connected": self._connection is not None,
            "gets": self.gets,
            "hits": self.hits,
            "puts": self.puts,
            "errors": self.errors,
        }
