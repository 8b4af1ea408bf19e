"""The serving-correctness property: served ≡ direct ``compile_many``.

The ISSUE's core invariant, tested end to end: N concurrent clients
submitting a seeded, shuffled mix of scenario-registry programs — with
forced duplicate submissions and warm-cache replays — must receive
responses whose ``result`` payloads are **byte-identical** to a serial
:func:`~repro.pipeline.compiler.compile_many` oracle over the same
(program, target, techniques, profile) inputs.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.compiler import compile_many
from repro.service.client import ServiceClient
from repro.service.protocol import (
    parse_compile_request,
    resolve_compile_request,
    response_result_bytes,
    result_payload,
)
from repro.workloads.scenarios import scenario_names
from tests.service.conftest import open_pipelined

#: The request space the property draws from (kept small enough that one
#: hypothesis example stays fast, varied enough to cross scenario families,
#: targets, technique subsets and cost models).
TARGETS = ("parisc", "tiny", "micro")
MODELS = ("jump_edge", "execution_count")
TECHNIQUE_CHOICES = (
    ("baseline", "shrinkwrap", "optimized"),
    ("baseline", "optimized"),
    ("baseline",),
)


def make_mix(seed: int, size: int, duplicates: int):
    """A seeded, shuffled request mix with ``duplicates`` forced repeats."""

    rng = random.Random(f"serving-property/{seed}")
    families = scenario_names()
    messages = []
    for position in range(size):
        family = rng.choice(families)
        messages.append(
            {
                "type": "compile",
                "id": f"m{position}",
                "program": {
                    "scenario": f"scenario:{family}:{seed}:{rng.randrange(3)}"
                },
                "target": rng.choice(TARGETS),
                "cost_model": rng.choice(MODELS),
                "techniques": list(rng.choice(TECHNIQUE_CHOICES)),
            }
        )
    # Forced coalescing pressure: duplicate existing entries verbatim
    # (fresh ids), then shuffle the whole plan.
    for copy in range(duplicates):
        original = rng.choice(messages)
        messages.append(dict(original, id=f"d{copy}"))
    rng.shuffle(messages)
    return messages


def serial_oracle(messages):
    """signature -> canonical result bytes, via one serial compile_many batch.

    Groups by compile options exactly the way the server's dispatcher does,
    then runs each group through a *serial, uncached* ``compile_many`` —
    the ground truth the server must reproduce bit for bit.
    """

    resolved = {}
    for message in messages:
        request = parse_compile_request(message)
        signature = request.signature()
        if signature not in resolved:
            resolved[signature] = resolve_compile_request(request)

    groups = {}
    for signature, item in resolved.items():
        groups.setdefault(item.options_key, []).append((signature, item))

    truth = {}
    for (target, cost_model, techniques, _cache), items in groups.items():
        compiled = compile_many(
            [(item.function, item.profile) for _sig, item in items],
            machine=target,
            cost_model=cost_model,
            techniques=list(techniques),
            verify=True,
        )
        for (signature, item), one in zip(items, compiled):
            truth[signature] = json.dumps(
                result_payload(item, one), sort_keys=True
            ).encode("utf-8")
    return truth


def serve_mix(port: int, messages, clients: int):
    """Submit the mix from ``clients`` concurrent connections; gather responses.

    Each client is a blocking :class:`ServiceClient` on its own thread,
    taking the next message from the shared plan until it runs out.
    """

    pending = iter(messages)
    lock = threading.Lock()

    def worker():
        mine = []
        with ServiceClient(port=port) as client:
            while True:
                with lock:
                    message = next(pending, None)
                if message is None:
                    return mine
                mine.append((message, client.send_compile_message(message)))

    with ThreadPoolExecutor(max_workers=clients) as pool:
        chunks = [pool.submit(worker) for _ in range(clients)]
        return [pair for chunk in chunks for pair in chunk.result()]


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_concurrent_serving_matches_serial_compile_many(seed, tmp_path_factory):
    """N concurrent clients, shuffled mix, duplicates, warm replays — all
    byte-identical to the serial oracle."""

    from repro.service.embedded import EmbeddedServer

    messages = make_mix(seed, size=8, duplicates=4)
    truth = serial_oracle(messages)
    cache_dir = str(tmp_path_factory.mktemp("serving-cache"))

    with EmbeddedServer(
        cache=cache_dir, batch_max_requests=8
    ) as emb:
        served = serve_mix(emb.port, messages, clients=4)
        # Warm replay: the same mix again — now largely cache hits — must
        # still answer identically.
        replayed = serve_mix(emb.port, messages, clients=2)
        stats = emb.stats()

    assert len(served) == len(messages)
    for message, response in served + replayed:
        signature = parse_compile_request(message).signature()
        assert response["type"] == "result", response
        assert response_result_bytes(response) == truth[signature]

    # The warm pass really exercised the cache front.
    assert stats["requests"]["cache_hits"] > 0
    assert stats["requests"]["errors"] == 0
    assert stats["requests"]["protocol_errors"] == 0


def test_forced_duplicate_burst_coalesces_and_matches(embedded_server, compile_hold):
    """Duplicates submitted while the first compile is in flight coalesce
    to one compile, and every fan-out copy matches the oracle bytes."""

    message = {
        "type": "compile",
        "id": "b0",
        "program": {"scenario": "scenario:switch_dispatch:11:0"},
        "target": "parisc",
    }
    duplicates = 6
    truth = serial_oracle([message])[parse_compile_request(message).signature()]

    with embedded_server(batch_max_requests=4) as emb:

        async def burst():
            connections = [await open_pipelined(emb.port) for _ in range(duplicates)]
            try:
                tasks = [
                    asyncio.ensure_future(c.request(dict(message, id=f"b{i}")))
                    for i, c in enumerate(connections)
                ]
                # The first compile is held until every duplicate waits on it.
                await asyncio.to_thread(compile_hold.wait_admitted, duplicates)
                compile_hold.release.set()
                return await asyncio.gather(*tasks)
            finally:
                compile_hold.release.set()
                for c in connections:
                    c.close("client closed")

        responses = asyncio.run(burst())
        stats = emb.stats()

    assert all(response_result_bytes(r) == truth for r in responses)
    assert stats["requests"]["compiled"] == 1
    assert stats["requests"]["coalesced"] == duplicates - 1


@pytest.mark.parametrize("target", ("parisc", "tiny"))
def test_served_equals_direct_for_corpus_programs(embedded_server, target):
    """The PR-4 regression corpus, served: byte-identical to the oracle."""

    import os

    from tests.service.conftest import oracle_result_bytes

    corpus_dir = os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "workloads", "corpus"
    )
    fixtures = sorted(n for n in os.listdir(corpus_dir) if n.endswith(".ir"))
    assert fixtures
    with embedded_server() as emb:
        from repro.service.client import ServiceClient

        with ServiceClient(port=emb.port) as client:
            for name in fixtures:
                with open(os.path.join(corpus_dir, name), encoding="utf-8") as handle:
                    text = handle.read()
                message = {
                    "type": "compile",
                    "id": name,
                    "program": {"ir": text},
                    "target": target,
                }
                response = client.send_compile_message(message)
                assert response_result_bytes(response) == oracle_result_bytes(message)


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=2, max_value=4),
)
def test_fleet_serving_matches_serial_compile_many(seed, shards):
    """The fleet-wide property: any seeded mix served by any 2–4 shard
    fleet is byte-identical to the serial oracle, and no key is compiled
    more than once across the whole fleet."""

    from repro.service.fleet import Fleet

    messages = make_mix(seed, size=6, duplicates=4)
    truth = serial_oracle(messages)

    with Fleet(shards=shards, backend="thread") as fleet:
        served = serve_mix(fleet.port, messages, clients=3)
        stats = fleet.stats()

    assert len(served) == len(messages)
    for message, response in served:
        signature = parse_compile_request(message).signature()
        assert response["type"] == "result", response
        assert response_result_bytes(response) == truth[signature]

    # Per-key compile count ≤ 1 fleet-wide: ring affinity + shard-local
    # coalescing + the synchronous tier publish, composed.
    compiled = sum(
        shard["stats"]["requests"]["compiled"] for shard in stats["shards"]
    )
    unique = len({parse_compile_request(m).signature() for m in messages})
    assert compiled <= unique
    assert stats["router"]["errors"] == 0
    assert stats["router"]["shard_deaths"] == 0
    assert stats["router"]["protocol_errors"] == 0
