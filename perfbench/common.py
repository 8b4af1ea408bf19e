"""Shared pieces of the benchmark: statistics, calibration, spans, output.

Every timing the benchmark reports is a median (or a percentile) over many
samples spread across the run.  Timings are scaled by the median of a
calibration kernel timed many times through the run, which cancels the
host's speed drift between runs, and reported at the speed of a reference
host; the raw values are printed beside them.  See README.md for the
measurements that motivated this.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space the benchmark may write to (cache directories, traces).
WORK_DIR = ROOT / ".perfbench"

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: Calibration kernel time, in seconds, of the reference host.  A normalised
#: duration is the raw one times (this constant / the run's median kernel
#: time); a normalised rate is the inverse.  Only the scale depends on it.
KERNEL_REF_S = 0.009


def pin_to_one_cpu() -> None:
    """Run this process, and the children it spawns, on one CPU.

    On a virtual machine each vCPU runs as fast as the host lets it at the
    moment, and the two vCPUs of the host this was designed on often
    differed by 50%.  On one CPU the calibration kernel measures the speed
    the work next to it ran at.  For the service workload it also keeps
    each request on one vCPU: waking the other vCPU costs a time that
    depends on what else the host runs, and spread the open-loop p50 by 40%
    across runs.
    """

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def require_program() -> None:
    """Exit with status 2 when the program's sources are not in the checkout."""

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def percentile(values: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile (nearest rank) of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie strictly above the percentile's rank, so a tail quantile is
    never read off a handful of points.
    """

    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if percent > 50.0 and beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{percent:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the acceptance check computes it."""

    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return q1, mid, q3, (q3 - q1) / mid if mid else float("inf")


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Host calibration.
# ---------------------------------------------------------------------------


def calibration_kernel() -> int:
    """A fixed pure-Python loop (dict updates, integer ops, a sort).

    It exercises the same interpreter paths the compiler spends its time in,
    so its duration tracks the host's current speed for that kind of work.
    """

    table: Dict[int, int] = {}
    acc = 0
    for i in range(60000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= key
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    return acc + len(ordered)


#: The clock of in-process CPU-bound timings: this thread's CPU time.  On a
#: virtual machine the hypervisor now and then takes the CPU away for a few
#: milliseconds (steal time); wall-clock timings then jump by 50% or more,
#: while the thread's CPU time does not count the stolen time.
CPU_CLOCK = time.thread_time

#: The clock of timings that span processes (the service's loads).
WALL_CLOCK = time.perf_counter


def time_kernel(clock=WALL_CLOCK) -> float:
    """Seconds one kernel run takes on ``clock``, with the garbage collector held off.

    Otherwise a collection of the garbage a compile left behind can land in
    the kernel and be charged to the host's speed.
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        calibration_kernel()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, kernel: float) -> float:
    """A duration measured while the kernel took ``kernel`` s, scaled to the reference host."""

    return seconds * KERNEL_REF_S / kernel


#: Kernel timings taken ahead of each set-up.
SETUP_KERNELS = 5


def children_cpu_seconds() -> float:
    """CPU seconds of this process's reaped children so far."""

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_setups(setup, repeats: int, before=None) -> Tuple[List[float], float]:
    """Run ``setup()`` ``repeats`` times; return their raw CPU seconds and ``setup_s``.

    A set-up's CPU time is that of the children it ran and reaped, plus this
    thread's, plus whatever ``setup()`` returns (the CPU time of a child it
    leaves running).  CPU time leaves out the time the host takes the CPU
    away, which made wall-clock set-up times spread by a third between runs.
    ``before()``, when given, runs untimed ahead of each set-up.  The kernel
    is timed :data:`SETUP_KERNELS` times ahead of each set-up; ``setup_s`` is
    the median CPU time at the speed the median of all those kernel timings
    gives.
    """

    raw, kernels = [], []
    for _ in range(repeats):
        if before is not None:
            before()
        kernels.extend(time_kernel(CPU_CLOCK) for _ in range(SETUP_KERNELS))
        children, own = children_cpu_seconds(), CPU_CLOCK()
        extra = setup() or 0.0
        raw.append(children_cpu_seconds() - children + CPU_CLOCK() - own + extra)
    return raw, at_reference_speed(median(raw), median(kernels))


def host_fingerprint(kernel_runs: int = 15) -> Dict[str, object]:
    """``nproc``, Python version and the calibration kernel's median time."""

    calibration_kernel()
    kernel = median(time_kernel() for _ in range(kernel_runs))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernel_ms": round(kernel * 1000.0, 4),
    }


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent, request id and clock.

    Spans are recorded around calls into the program's public functions from
    the benchmark's own code; nothing inside the program is instrumented.
    :meth:`span` reads the tracer's clock; :meth:`add` records wall-clock
    spans measured elsewhere.  A span and its parent share one clock.
    """

    def __init__(self, clock=WALL_CLOCK) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rid": rid,
            "clock": "cpu" if self._clock is CPU_CLOCK else "wall",
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = self._clock()
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int],
            rid: Optional[str] = None) -> int:
        """Record a span measured elsewhere (e.g. reported by the server)."""

        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "rid": rid, "clock": "wall", "start": start, "end": end}
        self.spans.append(record)
        return record["id"]

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""

        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: ``(count, total duration)``."""

        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            count, total = out.get(span["name"], (0, 0.0))
            out[span["name"]] = (count + 1, total + span["end"] - span["start"])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------


def note(text: str) -> None:
    """A human-readable line on stdout (never the last line)."""

    print(text, flush=True)


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the single JSON result line the benchmark contract asks for."""

    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(payload, sort_keys=False), flush=True)
