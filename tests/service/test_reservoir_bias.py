"""Regression pins against the decimating reservoir's tail bias.

``LatencyHistogram`` was once a reservoir that kept samples verbatim up to
65536 and then decimated to an arrival-order strided subsample.  For
time-correlated latency that subsample is not representative: two streams
with the identical multiset of values could report p99s an entire burst
apart, depending on which arrival phase the burst landed on.  The
histogram now counts every sample into fixed buckets, so its quantiles are
exact up to bucket resolution regardless of volume or arrival order.
These tests replay the streams that exposed the bias.
"""

from __future__ import annotations

import math

from repro.service.metrics import LatencyHistogram
from tests.service.test_health_properties import bucket_bound

FAST_MS = 1.0
SLOW_MS = 800.0
BURST = 1400  # slow samples: ~2% of the stream, so they own the true p99
#: Warmup samples before the burst: the old reservoir's decimation point.
WARMUP = 65536


def record_all(stream):
    histogram = LatencyHistogram()
    for value in stream:
        histogram.record(value)
    return histogram


def burst_stream(slow_phase):
    """``WARMUP`` fast samples, then a burst interleaved 1:1 with fast
    traffic.  ``slow_phase`` picks which arrival offset the slow samples
    occupy — the multiset of values is identical either way."""

    pair = [FAST_MS, SLOW_MS] if slow_phase == "even" else [SLOW_MS, FAST_MS]
    return [FAST_MS] * WARMUP + pair * BURST


class TestNoReservoirBias:
    def test_count_sum_min_max_are_exact(self):
        stream = burst_stream("even")
        histogram = record_all(stream)
        assert histogram.count == len(stream)
        assert histogram.minimum == FAST_MS
        assert histogram.maximum == SLOW_MS
        assert histogram.mean == sum(stream) / len(stream)

    def test_fixed_buckets_are_phase_invariant(self):
        """The same multiset produces the same quantile no matter the
        arrival order, and it equals the bucket bound of the true
        nearest-rank sample."""

        quantiles = [
            record_all(burst_stream(phase)).quantile(99.0) for phase in ("even", "odd")
        ]
        assert quantiles[0] == quantiles[1]

        stream = burst_stream("even")
        ordered = sorted(bucket_bound(v) for v in stream)
        rank = max(1, math.ceil(99.0 * len(ordered) / 100.0))
        assert quantiles[0] == ordered[rank - 1]
        assert quantiles[0] == bucket_bound(SLOW_MS)
