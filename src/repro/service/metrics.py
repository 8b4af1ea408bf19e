"""Service metrics: counters, latency histograms and snapshot reporting.

The server (:mod:`repro.service.server`) feeds one :class:`ServiceMetrics`
instance; the ``stats`` request type serializes it with
:meth:`ServiceMetrics.snapshot`.  Everything is standard library and
single-threaded by design — the server only touches metrics from its event
loop, so no locking is needed there; the snapshot itself is a plain dict a
reader can serialize safely at any point.

Every latency the service records — lifetime, windowed
(:mod:`repro.service.health`) and client-side (:mod:`repro.service.loadgen`)
— goes through one :class:`LatencyHistogram` with fixed bucket bounds, so
the lifetime and windowed quantiles of the same stream agree.

The snapshot's ``cache`` sub-object deliberately matches the shape
``repro-spill cache stats --json`` prints for an on-disk store, so
dashboards can consume either source with one parser.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

#: Upper bounds (milliseconds, inclusive) of the fixed latency buckets.
#: Geometric 1-2-5 spacing: resolution is always within a factor of ~2.5
#: of the value, and a quantile estimate is exact up to its bucket bound.
LATENCY_BUCKET_BOUNDS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
    500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)

#: The bound reported for samples beyond the last bucket (the overflow
#: bucket's conventional cap — twice the largest finite bound).
LATENCY_OVERFLOW_BOUND_MS = LATENCY_BUCKET_BOUNDS_MS[-1] * 2.0

#: The bound each bucket reports, overflow bucket last.
_REPORTED_BOUNDS_MS = LATENCY_BUCKET_BOUNDS_MS + (LATENCY_OVERFLOW_BOUND_MS,)

#: The percentiles every snapshot and every window payload reports.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


class LatencyHistogram:
    """Fixed-bucket latency counts plus exact count, total, min and max.

    A sample lands in the first bucket whose bound is at least its value
    (the last bucket catches overflow).  :meth:`quantile` is the
    nearest-rank answer at bucket resolution: the bound of the bucket
    holding the ``ceil(percent * count / 100)``-th smallest sample.  It is
    exact up to that resolution at any volume and in any arrival order,
    and memory is constant.
    """

    __slots__ = ("buckets", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * len(_REPORTED_BOUNDS_MS)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def record(self, value: float) -> None:
        """Record one sample (milliseconds by convention)."""

        value = float(value)
        self.buckets[bisect_left(LATENCY_BUCKET_BOUNDS_MS, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Add every sample ``other`` recorded to this histogram."""

        if not other.count:
            return
        self.buckets = [mine + theirs for mine, theirs in zip(self.buckets, other.buckets)]
        self.count += other.count
        self.total += other.total
        if self.minimum is None or other.minimum < self.minimum:
            self.minimum = other.minimum
        if self.maximum is None or other.maximum > self.maximum:
            self.maximum = other.maximum

    def quantile(self, percent: float) -> float:
        """Nearest-rank ``percent``-th quantile (bucket bound, ms); 0.0 if empty."""

        if not self.count:
            return 0.0
        rank = max(1, math.ceil(percent * self.count / 100.0))
        cumulative = 0
        for bound, count in zip(_REPORTED_BOUNDS_MS, self.buckets):
            cumulative += count
            if cumulative >= rank:
                return bound
        return LATENCY_OVERFLOW_BOUND_MS  # pragma: no cover - unreachable

    @property
    def mean(self) -> float:
        """Arithmetic mean of every recorded sample."""

        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """count/mean/min/max plus the reported percentiles, as a dict."""

        data: Dict[str, float] = {
            "count": self.count,
            "mean": round(self.mean, 4),
            "min": round(self.minimum or 0.0, 4),
            "max": round(self.maximum or 0.0, 4),
        }
        for percent in REPORTED_PERCENTILES:
            data[f"p{percent:g}"] = self.quantile(percent)
        return data


def counter() -> Any:
    """Declare one cumulative counter field of a :class:`CounterSet`."""

    return field(default=0, metadata={"counter": True})


class CounterSet:
    """A metrics dataclass whose counters are the fields declared by :func:`counter`."""

    def counter_values(self) -> Dict[str, int]:
        """The cumulative counters as a plain name → value dict, in declaration order.

        The bridge into the windowed health layer: a
        :class:`repro.service.health.HealthMonitor` delta-feeds these via
        ``feed_counters`` each tick, turning lifetime totals into
        per-window rates without double counting.
        """

        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.metadata.get("counter")
        }


@dataclass
class ServiceMetrics(CounterSet):
    """Every counter and histogram the compile server maintains."""

    #: Compile requests that arrived (admitted or not).
    received: int = counter()
    #: Compile requests answered with a ``result``.
    completed: int = counter()
    #: Compile requests answered with an ``error`` (all codes).
    errors: int = counter()
    #: Messages that failed protocol validation (subset of ``errors``).
    protocol_errors: int = counter()
    #: Compile requests rejected by admission control.
    rejected_overloaded: int = counter()
    #: Requests rejected by policy-driven load shedding (subset of
    #: ``rejected_overloaded`` on the wire: shed rejections reuse the
    #: ``overloaded`` error code so clients retry transparently).
    rejected_shed: int = counter()
    #: Compile requests rejected because the server was draining.
    rejected_shutting_down: int = counter()
    #: Requests that attached to an identical in-flight compile.
    coalesced: int = counter()
    #: Requests answered from the cache at admission (no queue, no batch).
    cache_hits: int = counter()
    #: Requests that went through a compile batch.
    compiled: int = counter()
    #: Batches dispatched.
    batches: int = 0
    #: Sum of batch sizes (unique entries, coalesced waiters excluded).
    batched_entries: int = 0
    #: Largest batch dispatched so far.
    max_batch_size: int = 0
    #: Peak admission-queue depth observed.
    peak_queue_depth: int = 0

    latency_ms: LatencyHistogram = field(default_factory=LatencyHistogram)
    queue_ms: LatencyHistogram = field(default_factory=LatencyHistogram)
    compile_ms: LatencyHistogram = field(default_factory=LatencyHistogram)

    started_at: float = field(default_factory=time.monotonic)

    def record_batch(self, size: int) -> None:
        """Account one dispatched batch of ``size`` unique entries."""

        self.batches += 1
        self.batched_entries += size
        self.max_batch_size = max(self.max_batch_size, size)

    def observe_queue_depth(self, depth: int) -> None:
        """Track the peak admission-queue depth."""

        self.peak_queue_depth = max(self.peak_queue_depth, depth)

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this metrics object was created (server start)."""

        return time.monotonic() - self.started_at

    @property
    def coalesce_rate(self) -> float:
        """Fraction of *completed* requests answered by coalescing."""

        return self.coalesced / self.completed if self.completed else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed requests answered from the cache front."""

        return self.cache_hits / self.completed if self.completed else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average unique entries per dispatched batch."""

        return self.batched_entries / self.batches if self.batches else 0.0

    def snapshot(
        self, queue_depth: int = 0, cache_stats: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One JSON-serializable view of every metric.

        ``queue_depth`` is the *current* admission-queue depth (a gauge the
        server samples at snapshot time); ``cache_stats`` is the shared
        store's stats dict (see :func:`cache_stats_payload`), absent when
        the server runs cacheless.
        """

        uptime = self.uptime_seconds
        snapshot: Dict[str, Any] = {
            "schema": "service-stats/v1",
            "uptime_seconds": round(uptime, 3),
            "requests": self.counter_values(),
            "rates": {
                "qps": round(self.completed / uptime, 3) if uptime > 0 else 0.0,
                "coalesce_rate": round(self.coalesce_rate, 4),
                "cache_hit_rate": round(self.cache_hit_rate, 4),
            },
            "batches": {
                "dispatched": self.batches,
                "mean_size": round(self.mean_batch_size, 3),
                "max_size": self.max_batch_size,
            },
            "queue": {
                "depth": queue_depth,
                "peak_depth": self.peak_queue_depth,
            },
            "latency_ms": self.latency_ms.summary(),
            "queue_ms": self.queue_ms.summary(),
            "compile_ms": self.compile_ms.summary(),
        }
        if cache_stats is not None:
            snapshot["cache"] = cache_stats
        return snapshot


def cache_stats_payload(cache) -> Dict[str, Any]:
    """The canonical JSON shape of one :class:`~repro.cache.store.CompileCache`.

    Shared by the service ``stats`` snapshot and by
    ``repro-spill cache stats --json`` so both report the identical schema.
    """

    return {
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "hit_rate": round(cache.stats.hit_rate, 4),
        "stores": cache.stats.stores,
        "evictions": cache.stats.evictions,
        "corrupt": cache.stats.corrupt,
        "entries": cache.entry_count(),
        "disk_bytes": cache.disk_bytes(),
    }
