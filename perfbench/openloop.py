"""The benchmark's own load generator and the accounting rules it relies on.

In the open loop every request has a due time fixed before the run starts,
and its latency is measured from that due time, not from when it was
actually sent: a stall in the client or the server then delays every later
request's clock too, as it would for independent users.  How late the
generator itself sent each request is recorded separately.

The helpers at the bottom encode the rules the tests pin down: failures
count against ``correct_frac`` and ``within_slo_frac``; a cache hit's pass
timings are the cold compile's, replayed, so they are excluded; and the
``compile_ms`` a response carries is its whole batch's wall time, so it is
counted once per batch.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Seconds to wait for an outstanding answer before counting it as failed.
RESPONSE_TIMEOUT_S = 30.0

#: Lead time between building the schedule and the first due time.
START_LEAD_S = 0.05


@dataclass(frozen=True)
class Request:
    id: str
    ref: str
    line: bytes
    #: Seconds after the start of the open loop when the request is due.
    offset: float


@dataclass
class Outcome:
    request: Request
    due: float = 0.0
    sent: Optional[float] = None
    received: Optional[float] = None
    response: Optional[Dict] = None


async def _read_answers(reader, pending: Dict[str, Outcome], on_answer=None) -> None:
    remaining = len(pending)
    while remaining:
        try:
            line = await asyncio.wait_for(reader.readline(), RESPONSE_TIMEOUT_S)
        except asyncio.TimeoutError:
            return
        if not line:
            return
        now = time.perf_counter()
        message = json.loads(line)
        outcome = pending.get(message.get("id"))
        if outcome is None or outcome.received is not None:
            continue
        outcome.received = now
        outcome.response = message
        remaining -= 1
        if on_answer is not None:
            on_answer()


async def open_loop(connections: Sequence, requests: Sequence[Request]) -> Dict[str, Outcome]:
    """Send each request at its due time, round-robin over ``connections``."""

    start = time.perf_counter() + START_LEAD_S
    outcomes = {r.id: Outcome(r, due=start + r.offset) for r in requests}
    shares: List[List[Outcome]] = [[] for _ in connections]
    for i, request in enumerate(requests):
        shares[i % len(connections)].append(outcomes[request.id])

    async def send(writer, share: List[Outcome]) -> None:
        for outcome in share:
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.sent = time.perf_counter()
            writer.write(outcome.request.line)
            await writer.drain()

    tasks = []
    for (reader, writer), share in zip(connections, shares):
        tasks.append(asyncio.create_task(send(writer, share)))
        tasks.append(asyncio.create_task(
            _read_answers(reader, {o.request.id: o for o in share})))
    await asyncio.gather(*tasks)
    return outcomes


async def closed_loop(connections: Sequence, requests: Sequence[Request],
                      depth: int) -> Dict[str, Outcome]:
    """Keep at most ``depth`` requests in flight per connection until all are answered.

    Latency here is measured from the actual send (there is no schedule).
    """

    outcomes = {r.id: Outcome(r) for r in requests}
    shares: List[List[Outcome]] = [[] for _ in connections]
    for i, request in enumerate(requests):
        shares[i % len(connections)].append(outcomes[request.id])

    async def send(writer, share: List[Outcome], window: asyncio.Semaphore) -> None:
        for outcome in share:
            await window.acquire()
            outcome.sent = outcome.due = time.perf_counter()
            writer.write(outcome.request.line)
            await writer.drain()

    tasks = []
    for (reader, writer), share in zip(connections, shares):
        window = asyncio.Semaphore(depth)
        tasks.append(asyncio.create_task(send(writer, share, window)))
        tasks.append(asyncio.create_task(
            _read_answers(reader, {o.request.id: o for o in share}, window.release)))
    await asyncio.gather(*tasks)
    return outcomes


# ---------------------------------------------------------------------------
# Accounting rules.
# ---------------------------------------------------------------------------


def due_time_latencies(outcomes: Sequence[Outcome], ok: Dict[str, bool]) -> List[float]:
    """Milliseconds from due time to answer; a failed request is infinitely late."""

    return [
        (o.received - o.due) * 1000.0 if ok.get(o.request.id) and o.received is not None
        else float("inf")
        for o in outcomes
    ]


def correct_frac(outcomes: Sequence[Outcome], ok: Dict[str, bool]) -> float:
    """Correct answers ÷ attempted; failed, refused and unanswered count as wrong."""

    return sum(1 for o in outcomes if ok.get(o.request.id)) / len(outcomes)


def within_slo_frac(outcomes: Sequence[Outcome], ok: Dict[str, bool], slo_ms: float) -> float:
    """Requests answered correctly within ``slo_ms`` of their due time ÷ attempted."""

    latencies = due_time_latencies(outcomes, ok)
    return sum(1 for ms in latencies if ms <= slo_ms) / len(outcomes)


def uncached_pass_seconds(response: Dict) -> Optional[float]:
    """A response's compile pass time, or ``None`` when it did not compile.

    A cache hit carries the cold compile's timings, replayed; a coalesced
    answer carries the timings of the compile it attached to.  Neither
    measures work done for this request.
    """

    service = response.get("service", {})
    if service.get("cache") != "miss" or service.get("coalesced"):
        return None
    return sum(response["timing"]["pass_seconds"].values())


def per_batch_compile_ms(outcomes: Sequence[Outcome]) -> List[Tuple[float, int]]:
    """``(compile_ms, batch_size)`` once per batch.

    Every answer from one batch reports the batch's whole wall time as its
    ``compile_ms``; answers sharing both values are one batch.
    """

    seen = set()
    batches = []
    for outcome in outcomes:
        response = outcome.response
        if response is None or response.get("service", {}).get("cache") != "miss":
            continue
        key = (response["timing"]["compile_ms"], response["service"]["batch_size"])
        if key not in seen:
            seen.add(key)
            batches.append(key)
    return batches
