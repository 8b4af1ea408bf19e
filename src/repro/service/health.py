"""Rolling-window service health: fixed buckets, SLOs, ``metrics-text/v1``.

The cumulative counters in :mod:`repro.service.metrics` answer "what has
happened since the server started"; operations needs "what is happening
*right now*".  This module adds the time-windowed layer between the two:

* :class:`RollingWindow` — a ring of fixed time buckets (1s wide by
  default) holding counter deltas, gauge maxima and **fixed-bucket**
  latency histograms.  Aggregating the last N buckets yields windowed
  p50/p95/p99 latency, error rates and queue-depth peaks without ever
  storing raw samples (memory is O(buckets), not O(events)).
* :class:`HealthMonitor` — the feeding discipline: latencies are recorded
  per event, counters are delta-fed from the cumulative
  :class:`~repro.service.metrics.ServiceMetrics`/``RouterMetrics`` values,
  and :meth:`HealthMonitor.sample` renders one canonical, JSON-stable
  ``health-sample/v1`` payload per tick.  Every method takes an optional
  explicit ``now`` and the clock itself is injectable, so tests drive
  whole SLO-burn scenarios without sleeping once.
* :class:`SLO` + :func:`evaluate_slos` — declarative objectives (p99
  latency, error rate, availability) evaluated as multi-window burn
  rates: an alarm fires only when *both* the fast and the slow window
  burn their error budget faster than the objective's threshold, the
  standard defence against paging on a single spike.
* :func:`render_metrics_text` — the Prometheus-style plaintext rendering
  of a stats snapshot (versioned ``metrics-text/v1``).  It is a pure
  function of the snapshot dict and **byte-deterministic**: the same
  snapshot always renders to the same bytes, which the ops CI job and
  the test suite pin.

Every latency series here is a
:class:`~repro.service.metrics.LatencyHistogram` — the same fixed-bucket
histogram behind the lifetime ``stats`` numbers — so a window covering a
whole stream reports exactly the lifetime quantiles, and a windowed
quantile is exact up to bucket resolution at any volume.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.service.metrics import (
    LATENCY_BUCKET_BOUNDS_MS,
    REPORTED_PERCENTILES,
    LatencyHistogram,
)

#: Schema tag of one :meth:`HealthMonitor.sample` payload.
HEALTH_SCHEMA = "health-sample/v1"

#: Schema tag of the plaintext metrics rendering.
METRICS_TEXT_SCHEMA = "metrics-text/v1"

#: Schema tag of a recorded metric trace (JSON lines; see
#: :func:`write_metric_trace` / :func:`load_metric_trace`).
METRIC_TRACE_SCHEMA = "metrics-trace/v1"

#: Default named windows: (label, seconds).  ``fast`` reacts within
#: seconds (shedding, paging), ``slow`` confirms that a burn is sustained.
DEFAULT_WINDOWS = (("fast", 10.0), ("slow", 60.0))

#: Default width of one rolling-window bucket, in seconds.
DEFAULT_BUCKET_SECONDS = 1.0

class _Bucket:
    """One fixed time slice: counter deltas, latency counts, gauge maxima."""

    __slots__ = ("counts", "latency", "gauges")

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self.latency = LatencyHistogram()
        self.gauges: Dict[str, float] = {}


@dataclass
class WindowAggregate:
    """The merged view of the buckets covering one time window."""

    #: The window length in seconds (as configured, not as covered).
    seconds: float
    #: Summed counter deltas over the window.
    counts: Dict[str, float]
    #: Every latency sample recorded inside the window.
    latency: LatencyHistogram
    #: Per-gauge maxima over the window.
    gauges: Dict[str, float]

    def rate(self, name: str) -> float:
        """Counter ``name`` per second over the window."""

        return self.counts.get(name, 0.0) / self.seconds if self.seconds else 0.0


class RollingWindow:
    """A ring of fixed time buckets with windowed aggregation.

    Bucket ``b`` covers ``[b * bucket_seconds, (b + 1) * bucket_seconds)``;
    aggregating a window of ``W`` seconds at time ``now`` merges the last
    ``round(W / bucket_seconds)`` buckets up to and including the current
    one — the window boundary is quantized to bucket edges, which is the
    documented (and property-tested) estimator contract.  Buckets older
    than ``capacity_seconds`` are pruned on write, bounding memory.
    """

    def __init__(
        self,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        capacity_seconds: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if bucket_seconds <= 0:
            raise ValueError(f"bucket_seconds must be > 0, got {bucket_seconds!r}")
        if capacity_seconds < bucket_seconds:
            raise ValueError("capacity_seconds must be >= bucket_seconds")
        self.bucket_seconds = float(bucket_seconds)
        self.capacity_buckets = max(1, round(capacity_seconds / bucket_seconds))
        self.clock = clock
        self._buckets: Dict[int, _Bucket] = {}

    def _now(self, now: Optional[float]) -> float:
        return self.clock() if now is None else now

    def _bucket(self, now: float) -> _Bucket:
        index = math.floor(now / self.bucket_seconds)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _Bucket()
            floor = index - self.capacity_buckets
            for stale in [i for i in self._buckets if i <= floor]:
                del self._buckets[stale]
        return bucket

    def increment(self, name: str, amount: float = 1.0, now: Optional[float] = None) -> None:
        """Add ``amount`` to counter ``name`` in the current bucket."""

        bucket = self._bucket(self._now(now))
        bucket.counts[name] = bucket.counts.get(name, 0.0) + amount

    def observe_latency(self, value_ms: float, now: Optional[float] = None) -> None:
        """Record one latency sample into the current bucket's histogram."""

        self._bucket(self._now(now)).latency.record(value_ms)

    def observe_gauge(self, name: str, value: float, now: Optional[float] = None) -> None:
        """Track the per-bucket maximum of gauge ``name``."""

        bucket = self._bucket(self._now(now))
        bucket.gauges[name] = max(bucket.gauges.get(name, value), value)

    def aggregate(self, window_seconds: float, now: Optional[float] = None) -> WindowAggregate:
        """Merge the buckets covering the trailing ``window_seconds``."""

        now = self._now(now)
        span = max(1, round(window_seconds / self.bucket_seconds))
        current = math.floor(now / self.bucket_seconds)
        counts: Dict[str, float] = {}
        latency = LatencyHistogram()
        gauges: Dict[str, float] = {}
        for index in range(current - span + 1, current + 1):
            bucket = self._buckets.get(index)
            if bucket is None:
                continue
            for name, value in bucket.counts.items():
                counts[name] = counts.get(name, 0.0) + value
            latency.merge(bucket.latency)
            for name, value in bucket.gauges.items():
                gauges[name] = max(gauges.get(name, value), value)
        return WindowAggregate(
            seconds=float(window_seconds), counts=counts, latency=latency, gauges=gauges
        )


class HealthMonitor:
    """Windowed health state for one server or router.

    ``counters`` declares the counter catalogue (incrementing an unknown
    name raises, catching typos at the call site); ``gauges`` declares
    the gauge catalogue the same way.  Counters are usually *delta-fed*
    from the cumulative metrics object via :meth:`feed_counters`;
    latencies are recorded per event via :meth:`observe_latency`.  The
    clock is injectable and every method takes an explicit ``now``
    override, so deterministic tests never sleep.
    """

    def __init__(
        self,
        counters: Sequence[str],
        gauges: Sequence[str] = (),
        windows: Sequence[Tuple[str, float]] = DEFAULT_WINDOWS,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        queue_limit: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not windows:
            raise ValueError("at least one window is required")
        self.counter_names = tuple(counters)
        self.gauge_names = tuple(gauges)
        self.windows = tuple((str(label), float(seconds)) for label, seconds in windows)
        self.queue_limit = queue_limit
        self.clock = clock
        capacity = max(seconds for _label, seconds in self.windows)
        self.window = RollingWindow(
            bucket_seconds=bucket_seconds, capacity_seconds=capacity, clock=clock
        )
        self._origin = clock()
        self._last_fed: Dict[str, float] = {}

    def now(self) -> float:
        """The monitor's current clock reading."""

        return self.clock()

    def elapsed(self, now: Optional[float] = None) -> float:
        """Seconds since the monitor was created (the sample ``t`` axis)."""

        return (self.clock() if now is None else now) - self._origin

    def increment(self, name: str, amount: float = 1.0, now: Optional[float] = None) -> None:
        """Add ``amount`` to declared counter ``name``."""

        if name not in self.counter_names:
            raise ValueError(f"unknown health counter {name!r}")
        self.window.increment(name, amount, now)

    def feed_counters(self, values: Mapping[str, float], now: Optional[float] = None) -> None:
        """Delta-feed cumulative counter values (the metrics-object bridge).

        Each declared counter's increase since the previous feed lands in
        the current bucket; a value that went backwards (a reset) counts
        from zero again.  Undeclared names in ``values`` are ignored so a
        metrics object may carry more counters than the windowed view.
        """

        for name in self.counter_names:
            if name not in values:
                continue
            value = float(values[name])
            delta = value - self._last_fed.get(name, 0.0)
            if delta < 0:
                delta = value
            self._last_fed[name] = value
            if delta > 0:
                self.window.increment(name, delta, now)

    def observe_latency(self, value_ms: float, now: Optional[float] = None) -> None:
        """Record one request latency (milliseconds) at event time."""

        self.window.observe_latency(value_ms, now)

    def observe_gauge(self, name: str, value: float, now: Optional[float] = None) -> None:
        """Record one reading of declared gauge ``name`` (windowed maximum)."""

        if name not in self.gauge_names:
            raise ValueError(f"unknown health gauge {name!r}")
        self.window.observe_gauge(name, value, now)

    def _window_payload(self, aggregate: WindowAggregate) -> Dict[str, Any]:
        counts = {
            name: int(aggregate.counts.get(name, 0.0)) for name in self.counter_names
        }
        latency = {
            "count": aggregate.latency.count,
            "buckets": list(aggregate.latency.buckets),
        }
        for percent in REPORTED_PERCENTILES:
            latency[f"p{percent:g}"] = aggregate.latency.quantile(percent)
        received = counts.get("received", 0)
        completed = counts.get("completed", 0)
        errors = counts.get("errors", 0)
        rates = {
            "qps": round(completed / aggregate.seconds, 6),
            "error_rate": round(errors / received, 6) if received else 0.0,
            "availability": round(completed / received, 6) if received else 1.0,
        }
        return {
            "seconds": aggregate.seconds,
            "counts": counts,
            "latency": latency,
            "gauges": {
                name: aggregate.gauges.get(name, 0.0) for name in self.gauge_names
            },
            "rates": rates,
        }

    def sample(self, now: Optional[float] = None) -> Dict[str, Any]:
        """One canonical ``health-sample/v1`` payload for the current tick.

        A pure rendering of the rolling window's state: JSON-serializable,
        key-stable, with ``t`` relative to the monitor's start (rounded to
        milliseconds) — the unit a metric trace records and the policy
        engine consumes.
        """

        now = self.clock() if now is None else now
        return {
            "schema": HEALTH_SCHEMA,
            "t": round(self.elapsed(now), 3),
            "queue_limit": self.queue_limit,
            "windows": {
                label: self._window_payload(self.window.aggregate(seconds, now))
                for label, seconds in self.windows
            },
        }


# ---------------------------------------------------------------------------
# SLOs and multi-window burn rates.
# ---------------------------------------------------------------------------

#: The objective kinds :class:`SLO` understands.
SLO_KINDS = ("latency", "error_rate", "availability")


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective.

    ``kind="latency"``
        "no more than ``1 - target`` of requests slower than ``threshold``
        ms" (``threshold`` must be one of the fixed bucket bounds so the
        bad-event count is exact);
    ``kind="error_rate"``
        "error responses stay under fraction ``threshold`` of received";
    ``kind="availability"``
        "completed/received stays at or above fraction ``threshold``".

    ``burn_threshold`` is the multi-window burn-rate alarm bound: the
    alarm fires when the error budget burns at least this many times
    faster than the objective allows in *both* evaluated windows.
    """

    name: str
    kind: str
    threshold: float
    target: float = 0.99
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; expected {SLO_KINDS}")
        if self.kind == "latency" and self.threshold not in LATENCY_BUCKET_BOUNDS_MS:
            raise ValueError(
                f"latency SLO threshold {self.threshold!r} must be one of the "
                f"fixed bucket bounds {LATENCY_BUCKET_BOUNDS_MS}"
            )
        if self.kind == "latency" and not 0.0 < self.target < 1.0:
            raise ValueError(f"latency SLO target must be in (0, 1), got {self.target!r}")
        if self.kind == "error_rate" and not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"error_rate SLO threshold must be in (0, 1), got {self.threshold!r}"
            )
        if self.kind == "availability" and not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"availability SLO threshold must be in (0, 1), got {self.threshold!r}"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be > 0, got {self.burn_threshold!r}"
            )


def slo_burn(slo: SLO, window_payload: Mapping[str, Any]) -> float:
    """The burn rate of one SLO over one window payload.

    Burn rate = (observed bad fraction) / (budgeted bad fraction); 1.0
    means the budget is being spent exactly as fast as the objective
    allows, 0.0 means no traffic or no badness.
    """

    counts = window_payload.get("counts", {})
    if slo.kind == "latency":
        latency = window_payload.get("latency", {})
        buckets = latency.get("buckets") or []
        total = sum(buckets)
        if total == 0:
            return 0.0
        # Bounds ascend and the threshold is one of them, so the good
        # buckets are a prefix of the list.
        good = sum(buckets[: LATENCY_BUCKET_BOUNDS_MS.index(slo.threshold) + 1])
        bad_fraction = (total - good) / total
        return round(bad_fraction / (1.0 - slo.target), 6)
    received = counts.get("received", 0)
    if not received:
        return 0.0
    if slo.kind == "error_rate":
        rate = counts.get("errors", 0) / received
        return round(rate / slo.threshold, 6)
    # availability
    availability = counts.get("completed", 0) / received
    return round((1.0 - availability) / (1.0 - slo.threshold), 6)


def evaluate_slos(
    slos: Sequence[SLO],
    sample: Mapping[str, Any],
    fast: str = "fast",
    slow: str = "slow",
) -> Dict[str, Dict[str, Any]]:
    """Multi-window burn-rate evaluation of every SLO against one sample.

    Returns ``{slo name: {"fast_burn", "slow_burn", "alarm"}}``; the alarm
    is true only when both windows burn at or beyond the SLO's threshold.
    A window missing from the sample contributes burn 0.0 (no alarm).
    """

    windows = sample.get("windows", {})
    report: Dict[str, Dict[str, Any]] = {}
    for slo in slos:
        fast_burn = slo_burn(slo, windows.get(fast, {}))
        slow_burn = slo_burn(slo, windows.get(slow, {}))
        report[slo.name] = {
            "fast_burn": fast_burn,
            "slow_burn": slow_burn,
            "alarm": fast_burn >= slo.burn_threshold
            and slow_burn >= slo.burn_threshold,
        }
    return report


def default_slos() -> Tuple[SLO, ...]:
    """The stock objectives servers and replays evaluate by default."""

    return (
        SLO(name="latency-p99", kind="latency", threshold=500.0, target=0.99),
        SLO(name="error-rate", kind="error_rate", threshold=0.01),
        SLO(name="availability", kind="availability", threshold=0.995),
    )


# ---------------------------------------------------------------------------
# The metrics-text/v1 plaintext rendering.
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    """Deterministic scalar rendering: ints plain, floats via ``repr``."""

    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise TypeError(f"cannot render {value!r} as a metric value")


def _metric(series: str, value: Any, **labels: str) -> str:
    """One exposition line, labels sorted for byte-determinism."""

    if labels:
        rendered = ",".join(
            f'{key}="{labels[key]}"' for key in sorted(labels)
        )
        return f"{series}{{{rendered}}} {_fmt(value)}"
    return f"{series} {_fmt(value)}"


def _render_histogram(lines: List[str], name: str, summary: Mapping[str, Any]) -> None:
    for stat in sorted(summary):
        lines.append(_metric(name, summary[stat], stat=str(stat)))


def _render_health(lines: List[str], prefix: str, health: Mapping[str, Any]) -> None:
    windows = health.get("windows", {})
    for label in sorted(windows):
        window = windows[label]
        for counter in sorted(window.get("counts", {})):
            lines.append(
                _metric(
                    f"{prefix}_window_total",
                    window["counts"][counter],
                    window=label,
                    event=counter,
                )
            )
        latency = window.get("latency", {})
        for stat in sorted(latency):
            if stat == "buckets":
                continue
            lines.append(
                _metric(
                    f"{prefix}_window_latency_ms", latency[stat],
                    window=label, stat=stat,
                )
            )
        for gauge in sorted(window.get("gauges", {})):
            lines.append(
                _metric(
                    f"{prefix}_window_gauge",
                    window["gauges"][gauge],
                    window=label,
                    name=gauge,
                )
            )
        for rate in sorted(window.get("rates", {})):
            lines.append(
                _metric(
                    f"{prefix}_window_rate",
                    window["rates"][rate],
                    window=label,
                    name=rate,
                )
            )


def _render_resolve_memo(lines: List[str], prefix: str, snapshot: Mapping[str, Any]) -> None:
    memo = snapshot.get("resolve_memo")
    if isinstance(memo, Mapping):
        for stat in sorted(memo):
            lines.append(_metric(f"{prefix}_resolve_memo", memo[stat], stat=stat))


def _render_service(lines: List[str], snapshot: Mapping[str, Any], prefix: str = "repro") -> None:
    lines.append(f"# TYPE {prefix}_requests_total counter")
    for event in sorted(snapshot.get("requests", {})):
        lines.append(
            _metric(f"{prefix}_requests_total", snapshot["requests"][event], event=event)
        )
    lines.append(_metric(f"{prefix}_uptime_seconds", snapshot.get("uptime_seconds", 0.0)))
    lines.append(_metric(f"{prefix}_draining", bool(snapshot.get("draining", False))))
    for rate in sorted(snapshot.get("rates", {})):
        lines.append(_metric(f"{prefix}_rate", snapshot["rates"][rate], name=rate))
    batches = snapshot.get("batches", {})
    for stat in sorted(batches):
        lines.append(_metric(f"{prefix}_batches", batches[stat], stat=stat))
    queue = snapshot.get("queue", {})
    for stat in sorted(queue):
        lines.append(_metric(f"{prefix}_queue", queue[stat], stat=stat))
    for histogram in ("latency_ms", "queue_ms", "compile_ms"):
        if histogram in snapshot:
            _render_histogram(lines, f"{prefix}_{histogram}", snapshot[histogram])
    if "cache" in snapshot:
        for stat in sorted(snapshot["cache"]):
            lines.append(_metric(f"{prefix}_cache", snapshot["cache"][stat], stat=stat))
    _render_resolve_memo(lines, prefix, snapshot)
    policy = snapshot.get("policy")
    if isinstance(policy, Mapping):
        lines.append(_metric(f"{prefix}_policy_shedding", bool(policy.get("shedding"))))
        lines.append(
            _metric(f"{prefix}_policy_decisions_total", int(policy.get("decisions", 0)))
        )
    if isinstance(snapshot.get("health"), Mapping):
        _render_health(lines, prefix, snapshot["health"])


def _render_fleet(lines: List[str], snapshot: Mapping[str, Any]) -> None:
    router = snapshot.get("router", {})
    lines.append("# TYPE repro_router_total counter")
    for counter in sorted(router):
        if counter == "latency_ms":
            _render_histogram(lines, "repro_router_latency_ms", router[counter])
        elif counter in ("uptime_seconds", "qps"):
            lines.append(_metric(f"repro_router_{counter}", router[counter]))
        else:
            lines.append(_metric("repro_router_total", router[counter], event=counter))
    lines.append(_metric("repro_draining", bool(snapshot.get("draining", False))))
    ring = snapshot.get("ring", {})
    lines.append(_metric("repro_ring_members", len(ring.get("members", []))))
    tier = snapshot.get("tier", {})
    for stat in sorted(tier):
        value = tier[stat]
        if isinstance(value, (int, float)):
            lines.append(_metric("repro_tier", value, stat=stat))
    lines.append(_metric("repro_lost_shards", len(snapshot.get("lost_shards", {}))))
    _render_resolve_memo(lines, "repro_router", snapshot)
    if isinstance(snapshot.get("health"), Mapping):
        _render_health(lines, "repro_router", snapshot["health"])
    for shard in snapshot.get("shards", []):
        shard_id = str(shard.get("id"))
        lines.append(_metric("repro_shard_healthy", bool(shard.get("healthy")), shard=shard_id))
        lines.append(_metric("repro_shard_pending", int(shard.get("pending", 0)), shard=shard_id))
        lines.append(
            _metric("repro_shard_forwarded_total", int(shard.get("forwarded", 0)), shard=shard_id)
        )
        lines.append(
            _metric("repro_shard_answered_total", int(shard.get("answered", 0)), shard=shard_id)
        )
        stats = shard.get("stats")
        if isinstance(stats, Mapping):
            for event in sorted(stats.get("requests", {})):
                lines.append(
                    _metric(
                        "repro_shard_requests_total",
                        stats["requests"][event],
                        shard=shard_id,
                        event=event,
                    )
                )


def render_metrics_text(snapshot: Mapping[str, Any]) -> str:
    """Render one stats snapshot as ``metrics-text/v1`` plaintext.

    Accepts both a single server's ``service-stats/v1`` snapshot and a
    fleet's ``fleet-stats/v1`` snapshot.  Pure and byte-deterministic:
    given the same snapshot dict this always returns the same string
    (sorted labels, ``repr`` floats, fixed section order) — the property
    the ops CI job asserts on a live scrape.
    """

    schema = snapshot.get("schema")
    lines = [f"# {METRICS_TEXT_SCHEMA}"]
    if schema == "service-stats/v1":
        _render_service(lines, snapshot)
    elif schema == "fleet-stats/v1":
        _render_fleet(lines, snapshot)
    else:
        raise ValueError(f"cannot render snapshot with schema {schema!r}")
    return "\n".join(lines) + "\n"


#: One exposition line: ``name`` or ``name{label="value",...}`` + a number.
_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?[0-9.eE+-]+|inf|nan)$"
)


def parse_metrics_text(text: str) -> Dict[str, float]:
    """Parse a ``metrics-text/v1`` payload into ``{series: value}``.

    The inverse used by tests and the ops CI job to assert a scrape is
    well-formed.  Raises ``ValueError`` on any malformed line or a
    missing schema header.
    """

    lines = text.splitlines()
    if not lines or lines[0] != f"# {METRICS_TEXT_SCHEMA}":
        raise ValueError(f"missing '# {METRICS_TEXT_SCHEMA}' header")
    series: Dict[str, float] = {}
    for line in lines[1:]:
        if not line or line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed metric line: {line!r}")
        key = match.group("name")
        if match.group("labels"):
            key = f"{key}{{{match.group('labels')}}}"
        series[key] = float(match.group("value"))
    return series


# ---------------------------------------------------------------------------
# Metric traces: recorded stats-snapshot sequences (JSON lines).
# ---------------------------------------------------------------------------


def write_metric_trace(path: str, samples: Sequence[Mapping[str, Any]]) -> int:
    """Write a recorded stats-snapshot sequence as a metric trace file.

    Line one is the ``metrics-trace/v1`` header; every further line holds
    one ``{"stats": <snapshot>}`` record in arrival order.  Returns the
    number of samples written.  The loader is :func:`load_metric_trace`.
    """

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {"schema": METRIC_TRACE_SCHEMA, "samples": len(samples)},
                sort_keys=True,
            )
            + "\n"
        )
        for sample in samples:
            handle.write(json.dumps({"stats": sample}, sort_keys=True) + "\n")
    return len(samples)


def load_metric_trace(path: str) -> List[Dict[str, Any]]:
    """Load the health samples out of a recorded metric trace.

    Returns the ``health-sample/v1`` payloads embedded in the recorded
    stats snapshots, in file order, with consecutive duplicates (two
    polls that observed the same monitor tick) collapsed — the exact
    sequence :func:`repro.service.policy.replay_decisions` consumes.
    """

    samples: List[Dict[str, Any]] = []
    last_t: Optional[float] = None
    with open(path, "r", encoding="utf-8") as handle:
        for position, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if position == 0 and record.get("schema") == METRIC_TRACE_SCHEMA:
                continue
            stats = record.get("stats")
            if not isinstance(stats, dict):
                continue
            health = stats.get("health")
            if not isinstance(health, dict) or health.get("schema") != HEALTH_SCHEMA:
                continue
            if health.get("t") == last_t:
                continue
            last_t = health.get("t")
            if isinstance(stats.get("shards"), list):
                # A fleet snapshot: fold the router's per-shard link state
                # into the sample so shard-level policy rules can replay.
                health = dict(health)
                health.setdefault(
                    "shards",
                    [
                        {
                            "id": shard.get("id"),
                            "healthy": bool(shard.get("healthy")),
                            "pending": int(shard.get("pending", 0)),
                            "stalled_seconds": float(
                                shard.get("stalled_seconds", 0.0)
                            ),
                        }
                        for shard in stats["shards"]
                    ],
                )
            samples.append(health)
    return samples
