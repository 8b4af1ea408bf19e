"""A versioned, content-addressed on-disk compile cache with an LRU front.

The pipeline is deterministic, so a compile result is fully determined by
its cache key (see :mod:`repro.ir.fingerprint`).  This store maps those keys
to pickled values — for compiles, one
:class:`~repro.pipeline.compiler.CompileRecord` per procedure:

* **On-disk layout** — ``<directory>/v<CACHE_VERSION>/<key[:2]>/<key>.pkl``.
  Sharding by the first two hex digits of the key keeps directories small
  (at most 256 shards) however many entries accumulate; the version
  directory means a format bump simply strands old entries instead of
  misreading them.
* **Entry format** — one header line, ``repro-cache <version> <key>
  <sha256>``, then the pickled value bytes.  The SHA-256 digest covers the
  value bytes and is checked *before* anything is unpickled, so a flipped
  bit is a miss rather than a silently wrong answer.
* **Atomic writes** — every entry is written to a temporary file in its
  shard directory and ``os.replace``-d into place, so a crashed or
  concurrent writer can never leave a torn entry behind; concurrent writers
  of the same key are idempotent (same key ⇒ same value).
* **Corruption policy** — a malformed header, a version, key or digest
  mismatch, or value bytes that do not unpickle are all *silently treated
  as misses* (counted in ``stats.corrupt`` and best-effort deleted).  A
  cache must never turn a bad disk into a compile failure.
* **In-memory LRU** — the hottest ``memory_entries`` values are kept
  deserialized in process, so repeated lookups inside one run skip the disk
  entirely.  The same object may be handed to several callers, which is
  why compile records are frozen.
* **Stats** — hits, misses, stores, evictions and corrupt entries are
  counted per :class:`CompileCache` instance (i.e. per process, not
  persisted).
* **Concurrency** — an internal lock makes one instance safe to share
  between threads (the compile server's event loop and its batch-dispatch
  thread use a single store), and every disk path tolerates files or
  directories vanishing mid-operation: a concurrent ``clear`` makes
  readers *miss*, never crash.

The store is value-agnostic: it never imports the pipeline layers and will
hold anything picklable.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Union

#: Bump when the on-disk payload format changes; old ``v<N>`` directories
#: are ignored by newer stores and removed by :meth:`CompileCache.clear`.
CACHE_VERSION = 2

#: First word of every entry's header line.
_MAGIC = b"repro-cache"

_MISSING = object()


@dataclass
class CacheStats:
    """Per-process counters of one :class:`CompileCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 with no lookups)."""

        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} hit_rate={self.hit_rate:.1%} "
            f"stores={self.stores} evictions={self.evictions} corrupt={self.corrupt}"
        )


class CompileCache:
    """Content-addressed key→value store: sharded disk tier + LRU memory tier."""

    def __init__(
        self, directory: Union[str, os.PathLike], memory_entries: int = 512
    ):
        self.directory = Path(directory)
        self.root = self.directory / f"v{CACHE_VERSION}"
        self.memory_entries = max(0, int(memory_entries))
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.stats = CacheStats()
        # One instance may be shared between threads (the compile server's
        # event loop does admission-time lookups while its dispatch thread
        # reads and writes through compile_many): the LRU OrderedDict and
        # the stats counters are only ever touched under this lock.
        self._lock = threading.RLock()

    # -- key→path mapping ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- lookups ------------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for ``key``, or ``default`` on a miss.

        Any kind of disk trouble — missing file, unreadable pickle, version,
        key or digest mismatch — is a miss, never an exception; in
        particular a concurrent :meth:`clear` racing this lookup yields a
        miss.
        """

        value = self._lookup_memory(key)
        if value is not _MISSING:
            return value
        # The disk read happens *outside* the lock: holding it across a
        # pickle load would serialize every other thread's lookups behind
        # this one's I/O (the compile server's event loop must never wait
        # on its dispatch thread's disk reads).  Two threads racing the
        # same key both read the same immutable entry — harmless.
        value = self._read_disk(key)
        with self._lock:
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self.stats.hits += 1
        self._remember(key, value)
        return value

    def get_from_memory(self, key: str) -> Any:
        """The value for ``key`` if the in-memory tier holds it, else None.

        Never touches the disk, so an event loop may call it.  A hit counts
        as one; absence counts nothing, because a caller that finds nothing
        here goes on to :meth:`get`, which counts the lookup once.
        """

        value = self._lookup_memory(key)
        return None if value is _MISSING else value

    def _lookup_memory(self, key: str) -> Any:
        with self._lock:
            if key not in self._memory:
                return _MISSING
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return self._memory[key]

    def _read_disk(self, key: str) -> Any:
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return _MISSING
        except OSError:
            data = b""
        header, _, body = data.partition(b"\n")
        if header == _entry_header(key, body):
            try:
                return pickle.loads(body)
            except Exception:
                # A class that no longer exists, or a writer bug: a miss.
                pass
        # Torn write survivor, flipped bit, stale format, foreign file ...
        # all of it is just a miss.
        with self._lock:
            self.stats.corrupt += 1
        self._discard(path)
        return _MISSING

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _remember(self, key: str, value: Any) -> None:
        if self.memory_entries == 0:
            return
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    # -- stores -------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (memory + atomically on disk).

        Disk write failures are swallowed: a read-only or full disk degrades
        the cache to memory-only instead of failing the compile.
        """

        self._remember(key, value)
        path = self._path(key)
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        payload = _entry_header(key, body) + b"\n" + body
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        with self._lock:
            self.stats.stores += 1

    # -- maintenance --------------------------------------------------------------

    def _entry_files(self, all_versions: bool = False) -> Iterator[Path]:
        # Every glob is materialized under a try: a concurrent ``clear``
        # (or any other writer) may delete shard directories while this
        # iterates, and a maintenance query must degrade to "fewer
        # entries", never raise.
        roots: List[Path]
        try:
            if all_versions:
                if not self.directory.is_dir():
                    return
                roots = sorted(p for p in self.directory.glob("v*") if p.is_dir())
            else:
                roots = [self.root]
            for root in roots:
                if root.is_dir():
                    yield from sorted(root.glob("*/*.pkl"))
        except OSError:
            return

    def entry_count(self) -> int:
        """Number of entries on disk for the current cache version."""

        return sum(1 for _ in self._entry_files())

    def disk_bytes(self) -> int:
        """Total bytes of the current version's entries on disk."""

        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every entry (all versions, stale ones included).

        Returns the number of entry files removed; empty shard and version
        directories are pruned best-effort.  Safe to run while other
        processes or threads are reading the same directory: their
        lookups observe misses (never errors), and entries they write
        concurrently may simply survive the sweep.
        """

        removed = 0
        for path in self._entry_files(all_versions=True):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.directory.is_dir():
            for version_dir in self.directory.glob("v*"):
                for shard in sorted(version_dir.glob("*"), reverse=True):
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
                try:
                    version_dir.rmdir()
                except OSError:
                    pass
        with self._lock:
            self._memory.clear()
        return removed


def _entry_header(key: str, body: bytes) -> bytes:
    """The header line an entry holding ``body`` under ``key`` starts with."""

    digest = hashlib.sha256(body).hexdigest()
    return b"%s %d %s %s" % (_MAGIC, CACHE_VERSION, key.encode(), digest.encode())


#: What every ``cache=`` parameter accepts: a store, a directory, or nothing.
CacheSpec = Union[CompileCache, str, os.PathLike, None]


def resolve_cache(cache: CacheSpec) -> Optional[CompileCache]:
    """Normalize a ``cache=`` argument: instance, directory path, or ``None``."""

    if cache is None or isinstance(cache, CompileCache):
        return cache
    return CompileCache(cache)
