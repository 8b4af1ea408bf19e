"""The serving fleet: a consistent-hash router over shard compile servers.

This is the horizontal layer on top of :mod:`repro.service.server`: N
independent shard processes (each a full :class:`CompileServer`) behind one
:class:`FleetRouter` frontend that speaks the same JSON-lines protocol as a
single server — existing clients, the load generator and the CI harness
connect to the router without change.

The router does four things:

* **Routing** — every compile request is resolved to its
  :func:`~repro.ir.fingerprint.procedure_cache_key` and consistent-hashed
  over the shard ring (:mod:`repro.service.ring`), so identical requests
  land on the same shard.
* **The shared cache tier** — the router holds a :class:`SharedCacheTier`
  and is its only writer.  It answers a request from the tier
  (``service.cache == "tier"``) without forwarding when it can; otherwise
  it forwards once per key in flight (identical requests arriving
  meanwhile coalesce onto that forward, ``service.coalesced``) and puts
  the relayed answer into the tier before relaying it.  No client can
  read or write the tier directly.
* **Health** — a shard that dies (connection EOF) is removed from the
  ring immediately and its in-flight requests are re-routed to the next
  owner on the ring; compiles are deterministic and idempotent, so a
  re-route can never produce a different answer, and responses are
  matched by router-assigned ids so none is ever dropped or duplicated.
  A *wedged* shard (alive but not answering) is detected by a stall
  watchdog — pending work but no response for ``stall_timeout`` — and
  treated exactly like a death: isolated, drained from the ring,
  re-routed around.
* **Drain** — a ``shutdown`` request (or SIGTERM via the CLI) stops
  admission, finishes every in-flight request, asks each shard to drain
  gracefully, then closes every connection.

:class:`Fleet` is the synchronous supervisor the CLI, the benchmarks and
the test-suite use: it runs the router on a background thread and spawns
shards either as real child processes (``backend="process"``, via
``repro-spill serve``) or as in-process embedded servers
(``backend="thread"``, cheaper and enough for scheduling/trace tests).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.service.endpoint import (
    Connection,
    JsonLinesEndpoint,
    PipelinedConnection,
    may_answer_from_cache,
)
from repro.service.health import HealthMonitor
from repro.service.metrics import CounterSet, LatencyHistogram, counter
from repro.service.protocol import (
    CompileAnswer,
    CompileIdentity,
    error_message,
    lint_result_message,
    resolve_compile_request,
    resolve_lint_request,
)
from repro.service.policy import Decision, PolicyEngine, default_engine
from repro.service.ring import HashRing
from repro.service.server import (
    DEFAULT_BATCH_MAX_REQUESTS,
    DEFAULT_HEALTH_INTERVAL,
    DEFAULT_MAX_QUEUE,
)

#: Seconds of "pending work but no response" after which the stall
#: watchdog declares a shard wedged and isolates it (tests shrink this).
DEFAULT_STALL_TIMEOUT_SECONDS = 30.0

#: Bound on one per-shard stats fetch during a fleet snapshot; a draining
#: or unreachable shard yields a partial entry instead of stalling it.
SHARD_STATS_TIMEOUT_SECONDS = 2.0

#: Bound on the per-shard graceful-shutdown request during a fleet drain.
SHARD_DRAIN_TIMEOUT_SECONDS = 30.0

#: Default bound on tier entries held in memory (LRU beyond it).  Entries
#: are small JSON payloads (a few KB), so the default bounds the tier to
#: tens of MB.
DEFAULT_TIER_ENTRIES = 65536


class ShardDied(Exception):
    """Raised to in-flight forwards when their shard's link goes down."""


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

    @property
    def hit_rate(self) -> float:
        """Fraction of gets answered from the tier (0.0 with no gets)."""

        return self.hits / self.gets if self.gets else 0.0


class SharedCacheTier:
    """The router's shared cache tier: one fleet-wide answer per cache key.

    A bounded LRU mapping of cache key → ``{"result", "pass_seconds"}``,
    the deterministic part of an answer — exactly what a
    :class:`~repro.service.protocol.CompileAnswer` replays.  The router is
    its only reader and writer and touches it only from its event loop,
    so it takes no lock.  Entries are treated as immutable; duplicate
    puts of a key are idempotent by determinism (same key ⇒ same bytes)
    and only counted.
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
        }


@dataclass
class RouterMetrics(CounterSet):
    """Counters the fleet router maintains (loop-owned, lock-free)."""

    #: Compile requests that arrived at the router.
    received: int = counter()
    #: Compile requests answered with a ``result``.
    completed: int = counter()
    #: Compile requests answered with an ``error`` (all codes).
    errors: int = counter()
    #: Messages that failed protocol validation (subset of ``errors``).
    protocol_errors: int = counter()
    #: Compile requests rejected because the fleet was draining.
    rejected_shutting_down: int = counter()
    #: Requests answered straight from the shared tier (no forward).
    tier_hits: int = counter()
    #: Requests answered with an identical in-flight request's forward.
    coalesced: int = counter()
    #: Requests forwarded to a shard (re-routes count again).
    forwarded: int = counter()
    #: Forwards retried on another shard after a death/drain/wedge.
    rerouted: int = counter()
    #: Shards removed from the ring because their link died.
    shard_deaths: int = counter()
    #: Shards isolated by the stall watchdog.
    wedged: int = counter()

    latency_ms: LatencyHistogram = field(default_factory=LatencyHistogram)
    started_at: float = field(default_factory=time.monotonic)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable view of the router's counters."""

        uptime = time.monotonic() - self.started_at
        return {
            "uptime_seconds": round(uptime, 3),
            **self.counter_values(),
            "qps": round(self.completed / uptime, 3) if uptime > 0 else 0.0,
            "latency_ms": self.latency_ms.summary(),
        }


class _ShardLink:
    """The router's pipelined connection to one shard.

    Forwards carry router-assigned ids (``x1``, ``x2``, ...) so responses
    demultiplex unambiguously no matter how clients chose theirs.  When
    the link dies — EOF, reset, or the watchdog closing a wedged shard —
    every in-flight forward fails with :class:`ShardDied` and the
    router's per-request handlers re-route; the death callback fires
    exactly once.
    """

    def __init__(
        self,
        shard_id: str,
        host: str,
        port: int,
        on_death: Callable[[str, str], None],
    ):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.forwarded = 0
        self.answered = 0
        self._on_death = on_death
        self._counter = 0
        self._connection: Optional[PipelinedConnection] = None

    @property
    def healthy(self) -> bool:
        """Whether the link is connected and usable for forwards."""

        return self._connection is not None and self._connection.closed is None

    @property
    def pending_count(self) -> int:
        """Forwards currently awaiting a response from this shard."""

        return self._connection.pending_count if self._connection is not None else 0

    @property
    def stalled_seconds(self) -> float:
        """Seconds since this link last made progress (see watchdog).

        The clock resets whenever pending work starts or any response
        arrives; stale + pending work = wedged.
        """

        if self._connection is None:
            return 0.0
        return time.monotonic() - self._connection.last_progress

    async def connect(self, timeout: float = 30.0) -> None:
        """Open the connection and complete the protocol handshake."""

        self._connection = await PipelinedConnection.open(
            self.host,
            self.port,
            timeout,
            label="shard",
            on_close=lambda reason: self._on_death(self.shard_id, reason),
        )

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Forward one message and await the matching response.

        Assigns a fresh internal id; raises :class:`ShardDied` if the
        link is or goes down before the response arrives.
        """

        if not self.healthy:
            raise ShardDied(
                self._connection.closed if self._connection else "link not connected"
            )
        self._counter += 1
        forward = dict(message)
        forward["id"] = f"x{self._counter}"
        self.forwarded += 1
        try:
            response = await self._connection.request(forward)
        except ConnectionError as exc:
            raise ShardDied(str(exc)) from None
        self.answered += 1
        return response

    def close(self, reason: str) -> None:
        """Tear the link down (idempotent): fail pending, notify once."""

        if self._connection is not None:
            self._connection.close(reason)


class FleetRouter(JsonLinesEndpoint):
    """The fleet frontend: protocol endpoint, hash ring, shared tier.

    Construct, ``await start()`` (the listener binds; an ephemeral port
    resolves), attach shards with :meth:`attach_shard`, then
    ``await serve_forever()``.  The synchronous wrapper most callers want
    is :class:`Fleet`.
    """

    role = "router"
    draining_text = "fleet is draining; try again later"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT_SECONDS,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
    ):
        if stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be > 0, got {stall_timeout!r}")
        super().__init__(host, port, health_interval)
        self.stall_timeout = stall_timeout
        self.ring = HashRing()
        self.tier = SharedCacheTier()
        self.metrics = RouterMetrics()
        self.health = HealthMonitor(counters=tuple(self.metrics.counter_values()))

        self._links: Dict[str, _ShardLink] = {}
        self._lost: Dict[str, str] = {}

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the watchdog."""

        await self._listen()
        self._background.append(asyncio.ensure_future(self._watchdog()))

    async def attach_shard(self, shard_id: str, host: str, port: int) -> None:
        """Connect a shard, add it to the ring, start routing to it."""

        if shard_id in self._links:
            raise ValueError(f"shard id {shard_id!r} is already attached")
        link = _ShardLink(shard_id, host, port, on_death=self._shard_lost)
        await link.connect()
        self._links[shard_id] = link
        self._lost.pop(shard_id, None)
        self.ring.add(shard_id)

    def _shard_lost(self, shard_id: str, reason: str) -> None:
        """Link-death callback: shrink the ring, record why (once)."""

        if shard_id not in self._links:
            return
        del self._links[shard_id]
        self.ring.remove(shard_id)
        self._lost[shard_id] = reason
        if not self._draining:
            self.metrics.shard_deaths += 1

    async def _watchdog(self) -> None:
        """Isolate wedged shards: pending work, no progress past the stall bound."""

        period = max(0.05, self.stall_timeout / 4.0)
        while True:
            await asyncio.sleep(period)
            for link in list(self._links.values()):
                if (
                    link.pending_count > 0
                    and link.stalled_seconds > self.stall_timeout
                ):
                    self.metrics.wedged += 1
                    link.close(
                        f"wedged: {link.pending_count} pending, no response "
                        f"for {link.stalled_seconds:.1f}s"
                    )

    def health_tick(self) -> None:
        """Feed the router counters into the rolling window.

        Run every ``health_interval`` seconds, keeping the windowed rates
        current even between ``stats`` polls, so a recorded trace
        attributes counter deltas close to event time.
        """

        self.health.feed_counters(self.metrics.counter_values())

    def health_sample(self) -> Dict[str, Any]:
        """The router's ``health-sample/v1`` payload, with shard link state.

        On top of the windowed counters/latency this folds in the live
        per-shard link view (``healthy``/``pending``/``stalled_seconds``)
        and the lost-shard record — the inputs the wedged-shard and
        restart policy rules consume, live and on replay.
        """

        self.health_tick()
        sample = self.health.sample()
        sample["shards"] = [
            {
                "id": shard_id,
                "healthy": link.healthy,
                "pending": link.pending_count,
                "stalled_seconds": round(link.stalled_seconds, 3),
            }
            for shard_id, link in sorted(self._links.items())
        ]
        sample["lost"] = dict(self._lost)
        return sample

    async def health_sample_async(self) -> Dict[str, Any]:
        """:meth:`health_sample` as a coroutine (for cross-thread calls)."""

        return self.health_sample()

    async def quarantine_shard(self, shard_id: str, reason: str) -> bool:
        """Isolate one shard on policy's orders (same path as the watchdog).

        Closes the shard's link with a ``wedged:`` reason, which shrinks
        the ring, fails its in-flight forwards over to re-routing, and
        records it in ``lost_shards``.  Returns False when the shard is
        not attached (already lost or never seen).
        """

        link = self._links.get(shard_id)
        if link is None:
            return False
        self.metrics.wedged += 1
        link.close(f"wedged: {reason}")
        return True

    async def _drain_hook(self) -> None:
        """Ask every shard to drain, then drop the links."""

        # A shard that cannot answer (dead, wedged) is simply closed.
        for link in list(self._links.values()):
            try:
                await asyncio.wait_for(
                    link.request({"type": "shutdown"}),
                    timeout=SHARD_DRAIN_TIMEOUT_SECONDS,
                )
            except (ShardDied, asyncio.TimeoutError, Exception):
                pass
        for link in list(self._links.values()):
            link.close("fleet drained")

    def describe(self) -> Dict[str, Any]:
        """The server-info dict sent in the router's handshake ``hello``."""

        return {
            "fleet": True,
            "shards": len(self._links),
            "tier_entries": self.tier.max_entries,
            "stall_timeout": self.stall_timeout,
        }

    # -- routing ------------------------------------------------------------------

    async def _handle_request(
        self, connection: Connection, message: Dict[str, Any], kind: str
    ) -> None:
        """Route one compile or lint request: tier front, then forward.

        Both kinds share the whole flow — parse, key, tier, consistent-hash
        forward — and differ only in the resolver and the shape of a
        tier-hit answer.  The key comes from the endpoint's resolution
        memo, so a repeated request is routed without being resolved.
        """

        resolver = (
            resolve_compile_request if kind == "compile" else resolve_lint_request
        )
        self._request_started()
        arrived = time.monotonic()
        try:
            request, resolution, reply = await self._admit(
                message, kind, lambda request: self._resolve_identity(request, resolver)
            )
            if reply is None:
                identity, _resolved = resolution
                reply = await self._route(kind, message, request, identity, arrived)
            await connection.send(reply)
        finally:
            self._request_finished()

    async def _route(
        self,
        kind: str,
        message: Dict[str, Any],
        request,
        identity: CompileIdentity,
        arrived: float,
    ) -> Dict[str, Any]:
        """The reply to one admitted request: a tier hit or a shard's answer.

        A request the tier may answer (:func:`may_answer_from_cache`) is
        looked up in the tier, then forwarded once per coalesce key in
        flight: identical requests arriving meanwhile wait for the leader's
        answer instead of forwarding again.  The leader's answer enters the
        tier before its key leaves the in-flight table, so a duplicate
        finds one or the other and the fleet compiles each key once.  Every
        other request (a cache bypass, a strict-lint compile, whose gate
        runs on the shard) is forwarded as it is.
        """

        request_id = request.id
        coalesced = False
        if may_answer_from_cache(request):
            # Tier front: the whole fleet may already know this answer.
            entry = self.tier.get(identity.cache_key)
            if entry is not None:
                self.metrics.tier_hits += 1
                self._complete(arrived)
                if kind == "lint":
                    return lint_result_message(
                        request_id, dict(entry["result"]), cache_status="tier"
                    )
                return CompileAnswer(
                    result=dict(entry["result"]),
                    pass_seconds=dict(entry["pass_seconds"]),
                    cache_status="tier",
                    queue_ms=0.0,
                    compile_ms=0.0,
                ).to_message(request_id)
            (response, shard_id), coalesced = await self._coalesce(
                identity.coalesce_key,
                lambda: self._forward_and_fill(message, identity.cache_key),
            )
        else:
            response, shard_id = await self._forward(message, identity.cache_key)

        if coalesced:
            self.metrics.coalesced += 1
        if response is None:
            self.metrics.errors += 1
            return error_message("internal", "no healthy shard available", request_id)
        relayed = dict(response)
        relayed["id"] = request_id
        if relayed.get("type") == "result":
            service = dict(relayed.get("service") or {})
            service["shard"] = shard_id
            if coalesced:
                service["coalesced"] = True
            relayed["service"] = service
            self._complete(arrived)
        else:
            self.metrics.errors += 1
        return relayed

    async def _forward_and_fill(
        self, message: Dict[str, Any], cache_key: str
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """:meth:`_forward`, putting a ``result`` answer into the tier first.

        The entry is the answer's deterministic part: its ``result`` and
        the compile's ``pass_seconds`` (a lint answer has none).
        """

        response, shard_id = await self._forward(message, cache_key)
        if response is not None and response.get("type") == "result":
            timing = response.get("timing") or {}
            self.tier.put(
                cache_key,
                {
                    "result": response["result"],
                    "pass_seconds": dict(timing.get("pass_seconds") or {}),
                },
            )
        return response, shard_id

    async def _forward(
        self, message: Dict[str, Any], cache_key: str
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """Forward to the key's owner, walking the ring past dead shards.

        Returns ``(response, shard_id)``; ``(None, None)`` when no shard
        could take the request.  Re-routes are safe because compiles are
        deterministic and idempotent, and every client response is built
        from exactly one shard response (pending forwards that die raise,
        they never also resolve).
        """

        attempted: set = set()
        while True:
            order = [
                shard_id
                for shard_id in self.ring.route_order(cache_key)
                if shard_id not in attempted
            ]
            if not order:
                return None, None
            shard_id = order[0]
            attempted.add(shard_id)
            link = self._links.get(shard_id)
            if link is None or not link.healthy:
                continue
            self.metrics.forwarded += 1
            try:
                response = await link.request(message)
            except ShardDied:
                # The ring has already shrunk (the death callback ran);
                # walk on to the key's next owner.
                self.metrics.rerouted += 1
                continue
            if (
                response.get("type") == "error"
                and response.get("code") == "shutting_down"
            ):
                # The shard is draining on its own; route around it.
                self.metrics.rerouted += 1
                continue
            return response, shard_id

    # -- stats --------------------------------------------------------------------

    async def stats_snapshot_async(self) -> Dict[str, Any]:
        """The fleet-wide stats snapshot (``fleet-stats/v1``).

        Per-shard stats are fetched live with a short timeout; a shard
        that is draining or unreachable contributes a partial entry with
        an explicit ``status`` marker instead of failing the snapshot.
        """

        links = list(self._links.items())

        async def fetch(link: _ShardLink) -> Optional[Dict[str, Any]]:
            try:
                reply = await asyncio.wait_for(
                    link.request({"type": "stats"}),
                    timeout=SHARD_STATS_TIMEOUT_SECONDS,
                )
            except (ShardDied, asyncio.TimeoutError, Exception):
                return None
            if reply.get("type") != "stats":
                return None
            stats = reply.get("stats")
            return stats if isinstance(stats, dict) else None

        fetched = await asyncio.gather(*(fetch(link) for _sid, link in links))
        shards = []
        for (shard_id, link), stats in zip(links, fetched):
            if stats is None:
                status = "unreachable"
            elif stats.get("draining"):
                status = "draining"
            else:
                status = "ok"
            shards.append(
                {
                    "id": shard_id,
                    "host": link.host,
                    "port": link.port,
                    "healthy": link.healthy,
                    "status": status,
                    "forwarded": link.forwarded,
                    "answered": link.answered,
                    "pending": link.pending_count,
                    "stalled_seconds": round(link.stalled_seconds, 3),
                    "stats": stats,
                }
            )
        return {
            "schema": "fleet-stats/v1",
            "draining": self._draining,
            "health": self.health_sample(),
            "router": self.metrics.snapshot(),
            "ring": {
                "members": list(self.ring.members),
                "points": self.ring.describe(),
            },
            "tier": self.tier.snapshot(),
            "resolve_memo": self.resolve_memo.snapshot(),
            "shards": shards,
            "lost_shards": dict(self._lost),
        }


# ---------------------------------------------------------------------------
# Shard backends and the synchronous supervisor.
# ---------------------------------------------------------------------------


def _package_source_dir() -> str:
    """The directory to put on a child's ``PYTHONPATH`` (repo's ``src``)."""

    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class ProcessShard:
    """One shard as a real child process (``python -m repro serve``).

    The process boundary makes this the backend for fault injection: it
    can be SIGKILLed (death), SIGSTOPped (wedge) and SIGCONTed back.
    """

    backend = "process"

    def __init__(
        self,
        shard_id: str,
        host: str = "127.0.0.1",
        workers: int = 1,
        cache_dir: Optional[str] = None,
        batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        startup_timeout: float = 60.0,
    ):
        self.shard_id = shard_id
        self.host = host
        self.port: Optional[int] = None
        self.workers = workers
        self.cache_dir = cache_dir
        self.batch_max_requests = batch_max_requests
        self.max_queue = max_queue
        self.startup_timeout = startup_timeout
        self.process: Optional[subprocess.Popen] = None
        self._stdout_thread: Optional[threading.Thread] = None
        self._listening = threading.Event()

    @property
    def pid(self) -> Optional[int]:
        """The child's pid (None before :meth:`start`)."""

        return self.process.pid if self.process is not None else None

    def start(self) -> None:
        """Spawn the child and wait for its "listening on" line."""

        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--workers", str(self.workers),
            "--batch-max", str(self.batch_max_requests),
            "--max-queue", str(self.max_queue),
        ]
        if self.cache_dir:
            command += ["--cache-dir", self.cache_dir]
        else:
            command += ["--no-cache"]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            _package_source_dir() + os.pathsep + env.get("PYTHONPATH", "")
        )
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self._stdout_thread = threading.Thread(
            target=self._pump_stdout, name=f"shard-{self.shard_id}-out", daemon=True
        )
        self._stdout_thread.start()
        if not self._listening.wait(self.startup_timeout):
            self.kill()
            raise RuntimeError(
                f"shard {self.shard_id} did not start listening within "
                f"{self.startup_timeout:g}s"
            )

    def _pump_stdout(self) -> None:
        """Drain the child's stdout forever; capture the bound port."""

        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            if "listening on" in line and self.port is None:
                address = line.rsplit(" ", 1)[-1].strip()
                try:
                    self.port = int(address.rpartition(":")[2])
                except ValueError:  # pragma: no cover - malformed banner
                    continue
                self._listening.set()
        # EOF: the child exited; unblock a waiter so start() can fail fast.
        self._listening.set()

    def kill(self) -> None:
        """SIGKILL the shard (the fault-injection "death" primitive)."""

        if self.process is not None and self.process.poll() is None:
            self.process.kill()

    def suspend(self) -> None:
        """SIGSTOP the shard (the fault-injection "wedge" primitive)."""

        if self.process is not None and self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGSTOP)

    def resume(self) -> None:
        """SIGCONT a suspended shard."""

        if self.process is not None and self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGCONT)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain) and reap; escalate to SIGKILL."""

        if self.process is None:
            return
        if self.process.poll() is None:
            try:
                self.process.terminate()
            except ProcessLookupError:  # pragma: no cover - exited just now
                pass
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(10.0)
        if self._stdout_thread is not None:
            self._stdout_thread.join(5.0)


class ThreadShard:
    """One shard as an in-process embedded server (no process boundary).

    Cheap and deterministic — the backend of choice for scheduling, tier
    and trace tests that do not need signals.
    """

    backend = "thread"

    def __init__(
        self,
        shard_id: str,
        host: str = "127.0.0.1",
        workers: int = 1,
        cache_dir: Optional[str] = None,
        batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        startup_timeout: float = 60.0,
    ):
        from repro.service.embedded import EmbeddedServer

        self.shard_id = shard_id
        self.host = host
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self._embedded = EmbeddedServer(
            workers=workers,
            cache=cache_dir,
            max_queue=max_queue,
            batch_max_requests=batch_max_requests,
            host=host,
            startup_timeout=startup_timeout,
        )

    def start(self) -> None:
        """Start the embedded server thread and record its port."""

        self._embedded.__enter__()
        self.port = self._embedded.port

    def kill(self) -> None:
        """Not supported: a thread cannot be SIGKILLed independently."""

        raise RuntimeError(
            "ThreadShard cannot be killed; use backend='process' for fault tests"
        )

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the embedded server and join its thread."""

        self._embedded.stop(timeout)


class Fleet:
    """The synchronous fleet supervisor: router thread + N shards.

    ``with Fleet(shards=3) as fleet:`` starts the router (on a dedicated
    thread with its own event loop), spawns the shards, attaches them to
    the ring, and
    yields an object exposing ``host``/``port`` (the router's endpoint),
    the live ``shards`` list and fault-injection helpers.
    Exit drains the whole fleet gracefully.
    """

    def __init__(
        self,
        shards: int = 3,
        backend: str = "process",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache_root: Optional[str] = None,
        batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT_SECONDS,
        startup_timeout: float = 60.0,
        remediate: bool = False,
        policy: Optional[PolicyEngine] = None,
        policy_interval: float = 0.5,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        if backend not in ("process", "thread"):
            raise ValueError(f"backend must be 'process' or 'thread', got {backend!r}")
        if policy_interval <= 0:
            raise ValueError(f"policy_interval must be > 0, got {policy_interval!r}")
        self.shard_count = shards
        self.backend = backend
        self.host = host
        self.port: Optional[int] = None
        self.router: Optional[FleetRouter] = None
        self.shards: List[Any] = []
        self._requested_port = port
        self._workers = workers
        self._cache_root = cache_root
        self._batch_max_requests = batch_max_requests
        self._max_queue = max_queue
        self._stall_timeout = stall_timeout
        self._startup_timeout = startup_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        # Policy-driven remediation (opt-in): a supervisor thread polls the
        # router's health sample, steps the policy engine, and *executes*
        # quarantine/restart decisions against the shard handles.  Off by
        # default so fault tests that pin "a killed shard stays lost" keep
        # their semantics.
        self.remediate = remediate
        self.policy = policy if policy is not None else default_engine()
        self._policy_interval = policy_interval
        self._policy_thread: Optional[threading.Thread] = None
        self._policy_stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------------

    def __enter__(self) -> "Fleet":
        self._thread = threading.Thread(
            target=self._run_router, name="repro-fleet-router", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise RuntimeError("fleet router did not start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"fleet router failed to start: {self._failure}"
            ) from self._failure
        try:
            for index in range(self.shard_count):
                self._spawn_shard(index)
        except BaseException:
            self.stop()
            raise
        if self.remediate:
            self._policy_thread = threading.Thread(
                target=self._policy_loop, name="repro-fleet-policy", daemon=True
            )
            self._policy_thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _run_router(self) -> None:
        try:
            asyncio.run(self._router_main())
        except BaseException as exc:  # pragma: no cover - surfaced via _failure
            self._failure = exc
            self._ready.set()

    async def _router_main(self) -> None:
        try:
            router = FleetRouter(
                host=self.host,
                port=self._requested_port,
                stall_timeout=self._stall_timeout,
            )
            await router.start()
        except BaseException as exc:
            self._failure = exc
            self._ready.set()
            return
        self.router = router
        self.port = router.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await router.serve_forever()

    def _call(self, coroutine, timeout: float = 60.0):
        """Run a coroutine on the router's loop from the calling thread."""

        if self._loop is None:
            coroutine.close()
            raise RuntimeError("fleet router is not running")
        try:
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        except RuntimeError:
            coroutine.close()
            raise
        return future.result(timeout)

    def _make_shard(self, shard_id: str):
        """Construct (but do not start) one shard handle with the fleet's config."""

        cache_dir = (
            os.path.join(self._cache_root, shard_id) if self._cache_root else None
        )
        shard_cls = ProcessShard if self.backend == "process" else ThreadShard
        return shard_cls(
            shard_id,
            host=self.host,
            workers=self._workers,
            cache_dir=cache_dir,
            batch_max_requests=self._batch_max_requests,
            max_queue=self._max_queue,
            startup_timeout=self._startup_timeout,
        )

    def _spawn_shard(self, index: int) -> None:
        shard_id = f"s{index}"
        shard = self._make_shard(shard_id)
        shard.start()
        assert self.router is not None and shard.port is not None
        self._call(self.router.attach_shard(shard_id, self.host, shard.port))
        self.shards.append(shard)

    # -- policy-driven remediation ------------------------------------------------

    def _policy_loop(self) -> None:
        """The remediation thread: sample health, step policy, execute.

        The engine only *decides* (deterministically, from the sample
        stream); this loop is the executor that turns ``quarantine`` and
        ``restart`` decisions into link closures and process restarts.
        """

        while not self._policy_stop.wait(self._policy_interval):
            if self.router is None:
                continue
            try:
                sample = self._call(self.router.health_sample_async(), timeout=10.0)
            except Exception:
                continue
            for decision in self.policy.step(sample):
                sys.stderr.write(
                    "[policy] " + json.dumps(decision.payload(), sort_keys=True) + "\n"
                )
                sys.stderr.flush()
                try:
                    self._execute_decision(decision)
                except Exception:  # pragma: no cover - best-effort remediation
                    pass

    def _execute_decision(self, decision: Decision) -> None:
        """Carry out one policy decision against the router and shards."""

        if decision.action == "quarantine":
            self._call(
                self.router.quarantine_shard(decision.target, decision.reason),
                timeout=10.0,
            )
        elif decision.action == "restart":
            self._restart_shard(decision.target)

    def _restart_shard(self, shard_id: str) -> None:
        """Drain+restart one wedged shard and reattach it to the ring.

        The wedged process is resumed first (a SIGSTOPped child cannot
        act on SIGTERM), drained with a short deadline (escalating to
        SIGKILL), then replaced by a fresh shard under the same id; the
        reattach clears the router's lost-shard record, so the ring grows
        back to full strength.
        """

        try:
            old = self.shard(shard_id)
        except KeyError:
            return
        resume = getattr(old, "resume", None)
        if resume is not None:
            try:
                resume()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            old.stop(5.0)
        except Exception:  # pragma: no cover - best-effort reap
            pass
        replacement = self._make_shard(shard_id)
        replacement.start()
        assert replacement.port is not None
        self._call(
            self.router.attach_shard(shard_id, self.host, replacement.port),
            timeout=30.0,
        )
        self.shards[self.shards.index(old)] = replacement

    def decisions(self) -> List[Decision]:
        """Every decision the remediation policy engine has made so far."""

        return list(self.policy.log)

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the router (which drains the shards), then reap everything."""

        self._policy_stop.set()
        if self._policy_thread is not None:
            self._policy_thread.join(timeout)
            self._policy_thread = None
        loop, router = self._loop, self.router
        if (
            loop is not None
            and router is not None
            and not router.draining
            and not loop.is_closed()
        ):
            coroutine = router.drain()
            try:
                asyncio.run_coroutine_threadsafe(coroutine, loop)
            except RuntimeError:
                coroutine.close()
        # The router thread exits once its drain completes (see
        # EmbeddedServer.stop for why the thread, not the future, is joined).
        if self._thread is not None:
            self._thread.join(timeout)
        for shard in self.shards:
            try:
                shard.stop()
            except Exception:  # pragma: no cover - best-effort reap
                pass

    # -- operations ---------------------------------------------------------------

    def shard(self, shard_id: str):
        """The shard handle with the given id (raises KeyError if unknown)."""

        for shard in self.shards:
            if shard.shard_id == shard_id:
                return shard
        raise KeyError(shard_id)

    def kill_shard(self, shard_id: str) -> None:
        """SIGKILL one shard (process backend): the "death" fault."""

        self.shard(shard_id).kill()

    def suspend_shard(self, shard_id: str) -> None:
        """SIGSTOP one shard (process backend): the "wedge" fault."""

        self.shard(shard_id).suspend()

    def resume_shard(self, shard_id: str) -> None:
        """SIGCONT a suspended shard (process backend)."""

        self.shard(shard_id).resume()

    def stats(self) -> Dict[str, Any]:
        """The fleet-wide stats snapshot, fetched thread-safely."""

        if self.router is None:
            raise RuntimeError("fleet is not running")
        return self._call(self.router.stats_snapshot_async())
