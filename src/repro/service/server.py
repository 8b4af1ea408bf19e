"""The asyncio compile server: admission control, batching, coalescing.

One resident :class:`CompileServer` process amortizes everything the batch
pipeline already built — the parallel sharding engine, the content-addressed
compile cache, the interned scenario registry — across a stream of
concurrent JSON-lines connections (:mod:`repro.service.protocol`):

* **Admission control** — a bounded queue (``max_queue``).  When it is
  full, new work is rejected *immediately* with an ``overloaded`` error;
  the server never buffers unbounded request state.  Clients retry with
  backoff (:mod:`repro.service.client`).
* **Work-conserving batching** — a single dispatcher sends every admitted
  entry to the compiler as soon as the compiler is free: a batch is
  whatever queued while the previous one compiled (at most
  ``batch_max_requests``), compiled through
  :func:`repro.pipeline.compiler.compile_many` (``workers=`` shards big
  batches over the process pool) off the event loop.  No timer holds a
  miss back while the compiler is idle.
* **In-flight coalescing** — work is keyed by its
  :func:`~repro.ir.fingerprint.procedure_cache_key`.  A request identical
  to one already in flight (same program, profile, target, techniques and
  cache policy) attaches to it instead of looking the cache up again or
  consuming a queue slot or a compile: one answer fans out to every
  waiter, each response marked ``coalesced`` (the endpoint core's
  coalescer, the same one the fleet router runs).
* **Shared cache front** — a single :class:`~repro.cache.store.CompileCache`
  serves every connection: admitted-but-cached work is answered at
  admission time (status ``hit``) without touching the queue, and batch
  dispatch passes the same store to ``compile_many`` so fresh compile
  records are written back for the next caller.  A repeated request
  resolves through the endpoint's memo (no IR, no fingerprint), and a
  memory-tier hit is answered on the event loop with no thread hop.
  Requests may opt out per-request (``cache: "bypass"``).
* **Graceful drain** — on SIGTERM/SIGINT (or a ``shutdown`` request) the
  server stops admitting (``shutting_down`` errors), finishes every queued
  and in-flight compile, flushes the responses, then closes.

Served results are **bit-identical** to a direct ``compile_many`` on the
same inputs: the pipeline is deterministic and both sides build the
response payload with :func:`repro.service.protocol.result_payload` — the
property the serving test suite (``tests/service/``) pins down.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.cache.store import CacheSpec, resolve_cache
from repro.pipeline.compiler import CompileRecord
from repro.service.endpoint import Connection, JsonLinesEndpoint, may_answer_from_cache
from repro.service.health import HealthMonitor
from repro.service.metrics import ServiceMetrics, cache_stats_payload
from repro.service.policy import PolicyEngine, default_engine
from repro.service.protocol import (
    CompileAnswer,
    CompileIdentity,
    ResolvedCompile,
    compile_lint_rejection,
    error_message,
    lint_result_message,
    resolve_compile_request,
    resolve_lint_request,
    result_payload,
    run_lint_request,
)

#: Default bound on admitted-but-undispatched entries.
DEFAULT_MAX_QUEUE = 256

#: Default bound on the unique entries one batch takes from the queue.
DEFAULT_BATCH_MAX_REQUESTS = 16

#: Default seconds between health ticks (rolling-window feed + policy step).
DEFAULT_HEALTH_INTERVAL = 1.0


class _QueueFull(Exception):
    """The admission queue has no slot: the request is answered ``overloaded``."""


@dataclass
class _PendingEntry:
    """One queued unit of unique compile work and the future it resolves."""

    resolved: ResolvedCompile
    future: "asyncio.Future[CompileAnswer]"
    enqueued_at: float


class CompileServer(JsonLinesEndpoint):
    """A compile-as-a-service endpoint over asyncio streams.

    Construct, then either ``await start()`` + ``await serve_forever()``
    inside an event loop, or use the synchronous embedding helper
    (:class:`repro.service.embedded.EmbeddedServer`) from ordinary code.
    ``port=0`` binds an ephemeral port; :attr:`port` holds the real one
    after :meth:`start`.
    """

    role = "server"
    draining_text = "server is draining; try another replica"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = 1,
        cache: CacheSpec = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        enable_policy: bool = True,
        policy: Optional[PolicyEngine] = None,
    ):
        super().__init__(host, port, health_interval)
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue!r}")
        if batch_max_requests < 1:
            raise ValueError(
                f"batch_max_requests must be >= 1, got {batch_max_requests!r}"
            )
        self.workers = workers
        self.cache = resolve_cache(cache)
        self.max_queue = max_queue
        self.batch_max_requests = batch_max_requests
        self.metrics = ServiceMetrics()
        # The rolling-window health layer and the self-protection policy
        # engine.  The monitor is delta-fed from ``self.metrics`` every
        # ``health_interval`` seconds; the engine's decisions are applied
        # on the spot (shedding) and logged as structured JSON records.
        self.health = HealthMonitor(
            counters=tuple(self.metrics.counter_values()),
            gauges=("queue_depth",),
            queue_limit=max_queue,
        )
        self.policy_enabled = enable_policy
        self.policy = policy if policy is not None else default_engine()
        self._shedding = False

        self._queue: "asyncio.Queue[Optional[_PendingEntry]]" = asyncio.Queue()
        self._batcher_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the batch dispatcher."""

        await self._listen()
        self._batcher_task = asyncio.ensure_future(self._batcher())

    async def _drain_hook(self) -> None:
        """Finish every admitted compile."""

        # The batcher keeps dispatching until it sees the sentinel, which
        # is queued *behind* all work.
        await self._queue.put(None)
        if self._batcher_task is not None:
            await self._batcher_task

    async def stats_snapshot_async(self) -> Dict[str, Any]:
        """The metrics snapshot a ``stats`` request is answered with.

        The cache disk sweep (a glob plus a ``stat`` per entry) runs in a
        worker thread, off the event loop.
        """

        snapshot = self.metrics.snapshot(queue_depth=self._queue.qsize())
        snapshot["draining"] = self._draining
        snapshot["health"] = self.health.sample()
        snapshot["policy"] = self._policy_payload()
        snapshot["resolve_memo"] = self.resolve_memo.snapshot()
        if self.cache is not None:
            snapshot["cache"] = await asyncio.to_thread(
                cache_stats_payload, self.cache
            )
        return snapshot

    def describe(self) -> Dict[str, Any]:
        """The server-info dict sent in the handshake ``hello``."""

        return {
            "max_queue": self.max_queue,
            "batch_max_requests": self.batch_max_requests,
            "workers": self.workers if self.workers is not None else 0,
            "cache": self.cache is not None,
            "policy": self.policy_enabled,
        }

    # -- health & policy ----------------------------------------------------------

    def health_tick(self, now: Optional[float] = None) -> List[Any]:
        """One health/policy tick; returns the decisions it produced.

        Delta-feeds the cumulative counters into the rolling window,
        samples the current queue depth, steps the policy engine on the
        resulting ``health-sample/v1``, and applies shedding transitions.
        Every decision is logged to stderr as one structured JSON line
        (prefix ``[policy]``), the same payload the replay path produces.
        Public (with an injectable ``now``) so tests drive ticks without
        sleeping.
        """

        self.health.feed_counters(self.metrics.counter_values(), now)
        self.health.observe_gauge("queue_depth", self._queue.qsize(), now)
        sample = self.health.sample(now)
        if not self.policy_enabled:
            return []
        decisions = self.policy.step(sample)
        for decision in decisions:
            if decision.action == "shed_on":
                self._shedding = True
            elif decision.action == "shed_off":
                self._shedding = False
            sys.stderr.write(
                "[policy] " + json.dumps(decision.payload(), sort_keys=True) + "\n"
            )
            sys.stderr.flush()
        return decisions

    @property
    def shedding(self) -> bool:
        """Whether policy-driven admission shedding is currently active."""

        return self._shedding

    def _policy_payload(self) -> Dict[str, Any]:
        """The ``policy`` section of a stats snapshot."""

        return {
            "enabled": self.policy_enabled,
            "shedding": self._shedding,
            "decisions": len(self.policy.log),
            "recent": [decision.payload() for decision in self.policy.log[-5:]],
        }

    # -- compile and lint requests ------------------------------------------------

    async def _handle_request(
        self, connection: Connection, message: Dict[str, Any], kind: str
    ) -> None:
        """Answer one ``compile`` or ``lint`` request.

        Both kinds share parsing, resolution, error mapping and the
        draining check; they differ only in the tail.  A request that may
        be answered from the cache resolves through the endpoint's memo,
        so a repeat reaches its tail with its identity and no IR; every
        other request resolves in full, in a thread.
        """

        self._request_started()
        arrived = time.monotonic()
        try:
            resolver = (
                resolve_compile_request if kind == "compile" else resolve_lint_request
            )
            request, resolution, reply = await self._admit(
                message,
                kind,
                lambda request: self._resolve_identity(
                    request, resolver, memoize=may_answer_from_cache(request)
                ),
            )
            if reply is None:
                tail = self._answer_compile if kind == "compile" else self._answer_lint
                reply = await tail(request, *resolution, arrived)
            await connection.send(reply)
        finally:
            self._request_finished()

    async def _answer_compile(
        self, request, identity: CompileIdentity, resolved, arrived: float
    ) -> Dict[str, Any]:
        """Shedding, the strict-lint gate, then one in-flight answer per key."""

        request_id = request.id
        # Policy-driven load shedding: below the queue-full bound, the
        # shed-load rule can reject at admission while the windowed
        # queue-depth peak stays above its threshold.  The rejection
        # reuses the ``overloaded`` error code, so clients back off
        # and retry exactly as for a full queue.
        if self._shedding:
            self.metrics.rejected_shed += 1
            self.metrics.rejected_overloaded += 1
            self.metrics.errors += 1
            return error_message(
                "overloaded",
                "admission shedding is active (queue pressure); retry with backoff",
                request_id,
            )

        # Strict-lint gate: reject IR with error-severity diagnostics
        # before it consumes a cache lookup, a queue slot or a compile.
        # The rejection payload is the same structured report the
        # pipeline's LintError and the CLI's --json mode carry.  Strict
        # requests never skip resolution, so ``resolved`` holds the IR.
        if request.lint == "strict":
            rejection = await asyncio.to_thread(compile_lint_rejection, resolved)
            if rejection is not None:
                self.metrics.errors += 1
                return error_message(
                    "lint_rejected",
                    "lint found error-severity diagnostics",
                    request_id,
                    diagnostics=rejection,
                )

        try:
            answer, coalesced = await self._coalesce(
                identity.coalesce_key,
                lambda: self._produce_compile(request, identity, resolved, arrived),
            )
        except _QueueFull as exc:
            self.metrics.rejected_overloaded += 1
            self.metrics.errors += 1
            return error_message("overloaded", str(exc), request_id)
        except Exception as exc:
            self.metrics.errors += 1
            return error_message("internal", f"compile failed: {exc}", request_id)
        if coalesced:
            answer = replace(answer, coalesced=True)
            self.metrics.coalesced += 1
        self._complete(arrived)
        return answer.to_message(request_id)

    async def _produce_compile(
        self, request, identity: CompileIdentity, resolved, arrived: float
    ) -> CompileAnswer:
        """The answer to one unique compile: the cache front, else the queue."""

        front = await self._cache_front("compile", request, identity)
        if front is not None:
            cache_status, entry = front
            return CompileAnswer(
                result=entry["result"],
                pass_seconds=dict(entry["pass_seconds"]),
                cache_status=cache_status,
            )
        if resolved is None:
            # A memo hit the cache no longer holds: build the IR after all.
            resolved = await asyncio.to_thread(resolve_compile_request, request)
        if self._queue.qsize() >= self.max_queue:
            raise _QueueFull(
                f"admission queue is full ({self.max_queue} entries); "
                "retry with backoff"
            )
        entry = _PendingEntry(
            resolved=resolved,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=arrived,
        )
        self._queue.put_nowait(entry)
        self.metrics.observe_queue_depth(self._queue.qsize())
        return await entry.future

    async def _answer_lint(
        self, request, identity: CompileIdentity, resolved, arrived: float
    ) -> Dict[str, Any]:
        """One in-flight answer per key: the cache front, else analyse off the loop.

        Lint reports are pure functions of the resolved inputs, so the
        request reuses the compile machinery's guarantees — shared cache
        (keys namespaced ``kind="lint"``) and in-flight coalescing —
        without ever entering the compile batch queue.
        """

        try:
            (payload, cache_status), coalesced = await self._coalesce(
                identity.coalesce_key,
                lambda: self._produce_lint(request, identity, resolved),
            )
        except Exception as exc:
            self.metrics.errors += 1
            return error_message("internal", str(exc), request.id)
        if coalesced:
            self.metrics.coalesced += 1
        self._complete(arrived)
        return lint_result_message(
            request.id, payload, cache_status=cache_status, coalesced=coalesced
        )

    async def _produce_lint(
        self, request, identity: CompileIdentity, resolved
    ) -> Tuple[Dict[str, Any], str]:
        """``(report payload, cache status)`` of one unique lint."""

        front = await self._cache_front("lint", request, identity)
        if front is not None:
            cache_status, entry = front
            return entry["result"], cache_status
        if resolved is None:
            resolved = await asyncio.to_thread(resolve_lint_request, request)
        try:
            payload = await asyncio.to_thread(run_lint_request, resolved)
        except Exception as exc:
            raise RuntimeError(f"lint failed: {type(exc).__name__}: {exc}") from None
        if request.cache != "use":
            return payload, "bypass"
        if self.cache is not None:
            await asyncio.to_thread(self.cache.put, identity.cache_key, payload)
        return payload, "miss"

    async def _cache_front(
        self, kind: str, request, identity: CompileIdentity
    ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Answer unique work from the local cache.

        Returns ``("hit", {"result": ..., "pass_seconds": ...})`` for a
        cache hit, else None.  A memory-tier hit is answered on the event
        loop; only a disk read (a pickle load) goes to a thread, and the
        store is thread-safe.
        """

        if request.cache != "use" or self.cache is None:
            return None
        cached = self.cache.get_from_memory(identity.cache_key)
        if cached is None:
            cached = await asyncio.to_thread(self.cache.get, identity.cache_key)
        entry = None
        if kind == "lint" and isinstance(cached, dict):
            entry = {"result": cached, "pass_seconds": {}}
        elif kind == "compile" and isinstance(cached, CompileRecord):
            entry = {
                "result": result_payload(identity, cached),
                "pass_seconds": dict(cached.pass_seconds),
            }
        if entry is None:
            return None
        self.metrics.cache_hits += 1
        return "hit", entry

    # -- the batch dispatcher -----------------------------------------------------

    async def _batcher(self) -> None:
        """Dispatch queued entries whenever the compiler is free, forever.

        Work-conserving: block for the first entry, take whatever else is
        already queued (up to ``batch_max_requests``) without waiting, and
        dispatch.  While a batch compiles (off the event loop, in a worker
        thread; ``compile_many`` may shard it further over the process
        pool), arrivals accumulate in the queue and become the next batch.
        Exits on the ``None`` sentinel :meth:`drain` enqueues after the
        last admitted entry.
        """

        while True:
            first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            sentinel_seen = False
            while len(batch) < self.batch_max_requests and not self._queue.empty():
                entry = self._queue.get_nowait()
                if entry is None:
                    sentinel_seen = True
                    break
                batch.append(entry)
            await self._dispatch(batch)
            if sentinel_seen:
                return

    async def _dispatch(self, batch: List[_PendingEntry]) -> None:
        """Compile one batch off the event loop and fan results out.

        Every entry's future is *guaranteed* to resolve — per-entry
        payload bugs become that entry's exception, and a failure of the
        dispatch itself fails the whole batch — so a bug can strand
        neither a client nor the batcher loop (see :meth:`_batcher`).
        """

        dispatch_start = time.monotonic()
        self.metrics.record_batch(len(batch))
        for entry in batch:
            self.metrics.queue_ms.record((dispatch_start - entry.enqueued_at) * 1000.0)

        try:
            # Group by compile options: one compile_many call per distinct
            # (target, cost model, techniques, cache policy) combination.
            groups: Dict[Tuple, List[_PendingEntry]] = {}
            for entry in batch:
                groups.setdefault(entry.resolved.options_key, []).append(entry)
            grouped = list(groups.items())

            outcomes = await asyncio.to_thread(self._compile_groups, grouped)

            compile_ms = (time.monotonic() - dispatch_start) * 1000.0
            for (_options, entries), (kind, value) in zip(grouped, outcomes):
                for position, entry in enumerate(entries):
                    self.metrics.compile_ms.record(compile_ms)
                    if entry.future.done():  # pragma: no cover - defensive
                        continue
                    if kind == "error":
                        entry.future.set_exception(RuntimeError(str(value)))
                        continue
                    try:
                        record = value[position]
                        answer = CompileAnswer(
                            result=result_payload(entry.resolved, record),
                            pass_seconds=dict(record.pass_seconds),
                            cache_status=(
                                "miss"
                                if entry.resolved.request.cache == "use"
                                else "bypass"
                            ),
                            batch_size=len(batch),
                            queue_ms=(dispatch_start - entry.enqueued_at) * 1000.0,
                            compile_ms=compile_ms,
                        )
                    except Exception as exc:
                        entry.future.set_exception(
                            RuntimeError(f"result fan-out failed: {exc}")
                        )
                        continue
                    self.metrics.compiled += 1
                    entry.future.set_result(answer)
        except Exception as exc:
            # Never let a dispatch bug strand the batch (or, worse, kill
            # the batcher): fail every unresolved future.
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(
                        RuntimeError(f"batch dispatch failed: {exc}")
                    )

    def _compile_groups(self, grouped) -> List[Tuple[str, Any]]:
        """Worker-thread body: run ``compile_many`` for every option group.

        Returns one ``("ok", [CompileRecord, ...])`` or
        ``("error", message)`` outcome per group — a failing group turns
        into per-request ``internal`` errors without taking down its batch
        siblings or the server.
        """

        from repro.pipeline.compiler import compile_many

        outcomes: List[Tuple[str, Any]] = []
        for (target, cost_model, techniques, policy), entries in grouped:
            procedures = [
                (entry.resolved.function, entry.resolved.profile) for entry in entries
            ]
            # Every ``use`` entry reached the queue through a cache-front
            # miss, so its key is passed on rather than computed and looked
            # up a second time.
            cached = policy == "use"
            try:
                records = compile_many(
                    procedures,
                    machine=target,
                    cost_model=cost_model,
                    techniques=list(techniques),
                    verify=True,
                    maximal_regions=True,
                    workers=self.workers,
                    cache=self.cache if cached else None,
                    miss_keys=(
                        [entry.resolved.cache_key for entry in entries]
                        if cached
                        else None
                    ),
                )
            except Exception as exc:
                outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
            else:
                outcomes.append(("ok", records))
        return outcomes


async def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    max_queue: int = DEFAULT_MAX_QUEUE,
    batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
    health_interval: float = DEFAULT_HEALTH_INTERVAL,
    enable_policy: bool = True,
    ready_callback=None,
) -> None:
    """Start a :class:`CompileServer` and run it until it drains.

    The coroutine the CLI ``serve`` subcommand drives.  ``ready_callback``
    (if given) is called with the server once it is listening — used to
    print the bound port and by the embedding helper.
    """

    server = CompileServer(
        host=host,
        port=port,
        workers=workers,
        cache=cache,
        max_queue=max_queue,
        batch_max_requests=batch_max_requests,
        health_interval=health_interval,
        enable_policy=enable_policy,
    )
    await server.start()
    server.install_signal_handlers()
    if ready_callback is not None:
        ready_callback(server)
    await server.serve_forever()
