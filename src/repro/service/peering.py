"""The shared cache tier: ``cache-get``/``cache-put`` requests on the router.

This is the fleet's shared cache plane (:mod:`repro.service.fleet`): every
backend shard that finishes a compile **puts** the deterministic answer
into one shared tier, and every shard (and the router itself) can **get**
it back — one shard's compile becomes every shard's cache hit.

The tier speaks the JSON-lines protocol of :mod:`repro.service.protocol`
on the router's one client endpoint, covered by its
:data:`~repro.service.protocol.PROTOCOL_VERSION`: after the ordinary
``hello``, a connection carries ``cache-get`` / ``cache-put`` requests
answered by ``cache-hit`` / ``cache-miss`` / ``cache-ok``.  Entries are
keyed by the full :func:`~repro.ir.fingerprint.procedure_cache_key`, and
the stored value is the *deterministic* part of a compile response (the
``result`` payload plus the cold ``pass_seconds``), exactly what
:class:`~repro.service.protocol.CompileAnswer` needs to answer a request
without compiling.  The tier trusts every client of the router port: it
stores any well-formed put under the key the frame names, without
checking the entry against it, and keeps the first write to a key.

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

from repro.service.endpoint import PipelinedConnection
from repro.service.protocol import ProtocolError, error_message

#: Request types the tier answers (on the router's endpoint).
TIER_REQUEST_TYPES = ("cache-get", "cache-put")

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
    """Validate one ``cache-get``/``cache-put`` request.

    Returns ``(type, id, key, entry)`` where ``entry`` is only non-None
    for ``cache-put``.
    """

    kind = message.get("type")
    if kind not in TIER_REQUEST_TYPES:
        raise ProtocolError(f"unknown peering frame type {kind!r}")
    allowed = {"type", "id", "key"}
    if kind == "cache-put":
        allowed.add("entry")
    unknown = sorted(set(message) - allowed)
    if unknown:
        raise ProtocolError(f"{kind} frame has unknown field(s): {', '.join(unknown)}")
    request_id = message.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError(f"{kind} frame 'id' must be a non-empty string")
    key = message.get("key")
    if not isinstance(key, str) or not key:
        raise ProtocolError(f"{kind} frame 'key' must be a non-empty string")
    entry = validate_entry(message.get("entry")) if kind == "cache-put" else None
    return kind, request_id, key, entry


def answer_tier_request(
    tier: "SharedCacheTier", message: Mapping[str, Any]
) -> Dict[str, Any]:
    """The reply to one ``cache-get``/``cache-put`` request against ``tier``.

    A malformed request counts in the tier's ``protocol_errors`` and is
    answered with a ``bad_request`` error; the connection stays up.
    """

    try:
        kind, request_id, key, entry = parse_peering_frame(message)
    except ProtocolError as exc:
        tier.stats.protocol_errors += 1
        request_id = message.get("id")
        return error_message(
            exc.code, str(exc), request_id if isinstance(request_id, str) else None
        )
    if kind == "cache-put":
        return {"type": "cache-ok", "id": request_id, "stored": tier.put(key, entry)}
    found = tier.get(key)
    if found is None:
        return {"type": "cache-miss", "id": request_id, "key": key}
    return {"type": "cache-hit", "id": request_id, "key": key, "entry": found}


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
    design: the router only touches it from its event loop (tier requests
    and the router's own admission-time lookups run on the same loop), so
    no locking is needed.  Entries are treated as
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


# ---------------------------------------------------------------------------
# The shard-side client.
# ---------------------------------------------------------------------------


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
