"""Process-pool sharding behind :func:`repro.pipeline.compiler.compile_many`.

Every procedure is compiled independently — register allocation, the three
placement techniques and the overhead accounting share nothing between
procedures — so compiles parallelize at *procedure* granularity.
:func:`compile_records` shards a flat batch over a
:class:`~concurrent.futures.ProcessPoolExecutor` with chunked submission
and a **deterministic merge**: each worker returns one frozen
:class:`~repro.pipeline.compiler.CompileRecord` per procedure (the allocated
IR and placements stay in the worker), and the records are re-assembled in
submission order, so parallel and serial runs aggregate the same
floating-point sums in the same order and produce bit-identical
measurements.

Serial fallback: ``workers=1`` (or a single procedure) runs the same worker
body in-process — no executor, no pickling — so the engine is safe to leave
enabled everywhere.  ``workers=None`` ("auto") resolves to the *available*
cores and stays serial on a single-core machine, where a pool is pure
overhead.

Teardown: the process pool never outlives its batch.  On any failure — a
procedure that raises in a worker, a ``KeyboardInterrupt`` in the parent —
pending chunks are cancelled and the pool is shut down (workers joined)
*before* the exception propagates, so a crashing evaluation cannot leak
worker processes (regression-tested in ``tests/evaluation/test_parallel.py``).

The compile cache is not handled here: ``compile_many`` answers hits before
it calls :func:`compile_records`, so only misses reach the pool, and a
fully warm batch never starts one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.pipeline.compiler import CompileRecord

#: Chunks submitted per worker (oversubscription smooths uneven chunk cost:
#: a worker that drew cheap procedures picks up another chunk instead of
#: idling while the slowest worker finishes).
CHUNKS_PER_WORKER = 4


def available_cpus() -> int:
    """Cores actually available to this process.

    ``os.cpu_count()`` reports the *host*'s cores; inside a container or
    under a CPU affinity mask the process may be pinned to far fewer.  Take
    the affinity set when the platform exposes it, capped by ``cpu_count``.
    """

    count = os.cpu_count() or 1
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - platform dependent
        affinity = count
    return max(1, min(count, affinity or count))


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count argument.

    ``None`` means "auto": every *available* core — but on a single-core
    machine auto mode resolves to ``1`` and the engine stays serial, because
    a process pool there is pure overhead (``docs/performance.md`` records a
    0.89x slowdown from pool startup and pickling on one core).  Explicit
    values must be positive and are honoured as given.
    """

    if workers is None:
        count = available_cpus()
        return 1 if count <= 1 else count
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return int(workers)


def effective_workers(workers: Optional[int], total: int) -> int:
    """The worker count a batch of ``total`` procedures would actually use.

    ``1`` whenever the serial fallback applies (one worker requested or a
    batch too small to shard) — the number honest reporting should quote,
    as opposed to the *requested* count.  A batch smaller than the requested pool caps the answer at
    ``total``, matching the executor cap in the sharding path.  A compile
    cache can still shrink the batch below ``total`` at run time (a fully
    warm run skips the pool entirely), which this pre-run answer cannot
    see.
    """

    resolved = resolve_workers(workers)
    if not _can_shard(resolved, total):
        return 1
    # The pool is never larger than the chunk plan, and the plan never has
    # more workers' worth of chunks than procedures.
    return min(resolved, total)


# ---------------------------------------------------------------------------
# The worker body (module-level so it pickles by qualified name).
# ---------------------------------------------------------------------------


def _compile_chunk(payload) -> List[CompileRecord]:
    """Compile a chunk of procedures, return one record each.

    Runs in a pool worker, and in-process on the serial path.  ``machine``
    and ``cost_model`` arrive resolved (``compile_many`` resolves them).
    """

    procedures, machine, cost_model, techniques, verify, maximal_regions = payload
    from repro.analysis.bitset import base_register_index
    from repro.pipeline.compiler import compile_procedure

    # Prime the per-process interning index once; every compile in this
    # worker forks it instead of re-interning the register universe.
    base_register_index(machine)
    return [
        compile_procedure(
            procedure,
            machine=machine,
            cost_model=cost_model,
            techniques=techniques,
            verify=verify,
            maximal_regions=maximal_regions,
        ).record
        for procedure in procedures
    ]


# ---------------------------------------------------------------------------
# Sharding.
# ---------------------------------------------------------------------------


def _chunk_plan(total: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``total`` procedures into ``(start, stop)`` submission chunks.

    The chunks cover every position in order.  The chunk size targets
    ``workers * CHUNKS_PER_WORKER`` chunks over the *whole* batch, so the
    small benchmarks of a suite share workers with the large ones.
    """

    if total == 0:
        return []
    chunk_size = max(1, -(-total // (workers * CHUNKS_PER_WORKER)))
    return [(start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)]


def _can_shard(workers: int, total: int) -> bool:
    """Should this batch cross process boundaries at all?"""

    return workers > 1 and total > 1


def compile_records(
    procedures: Sequence[object],
    machine,
    cost_model,
    techniques: Sequence[str],
    verify: bool,
    maximal_regions: bool,
    workers: Optional[int],
) -> List[CompileRecord]:
    """Compile ``procedures`` into records, in input order.

    Shards over a ``workers``-process pool when :func:`_can_shard` allows,
    else runs the worker body in-process.
    """

    workers = resolve_workers(workers)
    options = (tuple(techniques), verify, maximal_regions)
    if not _can_shard(workers, len(procedures)):
        return _compile_chunk((procedures, machine, cost_model) + options)

    plan = _chunk_plan(len(procedures), workers)
    records: List[CompileRecord] = []
    pool = ProcessPoolExecutor(max_workers=min(workers, len(plan)))
    try:
        futures = [
            pool.submit(
                _compile_chunk,
                (list(procedures[start:stop]), machine, cost_model) + options,
            )
            for start, stop in plan
        ]
        # Collect in submission order — the merge is deterministic no matter
        # which worker finished first.
        for future in futures:
            records.extend(future.result())
    except BaseException:
        # A failing chunk (or a KeyboardInterrupt in the parent) must not
        # leave workers grinding through the rest of the plan:
        # ``cancel_futures`` drops everything not yet running and
        # ``wait=True`` joins the worker processes, so no children leak
        # whatever the failure mode.
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return records
