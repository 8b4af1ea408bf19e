"""Timing helpers used by the compile pipeline and Table 2.

Two distinct quantities flow through the evaluation and must never be
conflated:

* A :class:`Stopwatch` measures the **CPU time** of the thread doing the
  work (``time.thread_time``), so time the thread spends preempted by
  another process or asleep is not counted.  Summed across a worker pool,
  concurrent work adds up, so under ``workers=N`` the sum can exceed
  elapsed time by up to a factor of N.
* **Wall-clock elapsed** time is measured once, in the parent, around the
  whole run.

:func:`describe_timing` renders both side by side; the reporting layer uses
it so ``--workers N`` runs never pass summed worker-CPU-seconds off as
elapsed compile time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
from contextlib import contextmanager


def describe_timing(cpu_seconds: float, wall_seconds: float, workers: int = 1) -> str:
    """One honest line: pass CPU total vs. parent-measured wall-clock."""

    return (
        f"pass CPU total: {cpu_seconds:.4f}s (summed across workers); "
        f"wall-clock elapsed: {wall_seconds:.4f}s (workers={workers})"
    )


@dataclass
class Stopwatch:
    """Accumulates named durations of the measuring thread's CPU time."""

    durations: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager adding the thread CPU time spent inside to ``name``."""

        start = time.thread_time()
        try:
            yield
        finally:
            elapsed = time.thread_time() - start
            self.durations[name] = self.durations.get(name, 0.0) + elapsed

    def get(self, name: str) -> float:
        """Accumulated seconds recorded under ``name`` (0.0 when absent)."""

        return self.durations.get(name, 0.0)

    def merge(self, other: "Stopwatch") -> None:
        """Fold another stopwatch's durations into this one, key by key."""

        for name, value in other.durations.items():
            self.durations[name] = self.durations.get(name, 0.0) + value

    def total(self) -> float:
        """Sum of every recorded duration."""

        return sum(self.durations.values())
