"""Run a :class:`~repro.service.server.CompileServer` inside this process.

The service tests, the benchmark harness and ``repro-spill loadgen
--self-serve`` all need a real, reachable server without managing a child
process: :class:`EmbeddedServer` runs one on a dedicated thread with its own
event loop, binds an ephemeral port, and tears the whole thing down —
through the same graceful-drain path a SIGTERM takes — when the context
exits.

The embedded server is the real thing (same admission control, batching,
coalescing and cache sharing), only the process boundary is missing; the CI
service job covers the cross-process path by launching ``repro-spill
serve`` as an actual child process.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, Optional

from repro.cache.store import CacheSpec
from repro.service.server import (
    DEFAULT_BATCH_MAX_REQUESTS,
    DEFAULT_MAX_QUEUE,
    CompileServer,
)


class EmbeddedServer:
    """A compile server on a background thread, as a context manager.

    ``with EmbeddedServer(...) as server:`` yields an object exposing
    ``host``, ``port`` (the ephemeral bind), the live ``server`` instance
    and :meth:`stats` — everything a client in the calling thread needs.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: CacheSpec = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        batch_max_requests: int = DEFAULT_BATCH_MAX_REQUESTS,
        host: str = "127.0.0.1",
        startup_timeout: float = 30.0,
    ):
        self.host = host
        self.port: Optional[int] = None
        self.server: Optional[CompileServer] = None
        self._kwargs = dict(
            host=host,
            port=0,
            workers=workers,
            cache=cache,
            max_queue=max_queue,
            batch_max_requests=batch_max_requests,
        )
        self._startup_timeout = startup_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "EmbeddedServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise RuntimeError("embedded compile server did not start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"embedded compile server failed to start: {self._failure}"
            ) from self._failure
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - surfaced via _failure
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        try:
            server = CompileServer(**self._kwargs)
            await server.start()
        except BaseException as exc:
            self._failure = exc
            self._ready.set()
            return
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.serve_forever()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the server gracefully and join the background thread."""

        loop, server = self._loop, self.server
        # A drain already under way (a client's ``shutdown``) needs no
        # second one; the join below waits for it.
        if (
            loop is not None
            and server is not None
            and not server.draining
            and not loop.is_closed()
        ):
            coroutine = server.drain()
            try:
                asyncio.run_coroutine_threadsafe(coroutine, loop)
            except RuntimeError:
                # The loop exited between the check and the call (e.g. a
                # client-driven shutdown already completed the drain): the
                # coroutine never started, so close the orphan.  Never
                # close a *scheduled* coroutine — it belongs to the loop.
                coroutine.close()
        # The loop thread exits once the drain completes.  Joining it, not
        # the drain's future, cannot hang when a client-driven drain ends
        # the loop before the scheduled coroutine gets to run.
        if self._thread is not None:
            self._thread.join(timeout)

    def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot, fetched thread-safely."""

        if self._loop is None or self.server is None:
            raise RuntimeError("embedded server is not running")
        future = asyncio.run_coroutine_threadsafe(
            _snapshot(self.server), self._loop
        )
        return future.result(30.0)


async def _snapshot(server: CompileServer) -> Dict[str, Any]:
    """Take the snapshot on the server's own loop (metrics are loop-owned).

    :meth:`~repro.service.server.CompileServer.stats_snapshot_async` runs
    the cache disk sweep in a worker thread, so a large store never stalls
    the embedded server's event loop.
    """

    return await server.stats_snapshot_async()
