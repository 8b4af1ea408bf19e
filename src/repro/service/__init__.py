"""Compile-as-a-service: the resident serving layer over the batch pipeline.

Every other entry point in this repository (the CLI subcommands,
:func:`~repro.evaluation.runner.run_suite`,
:func:`~repro.pipeline.compiler.compile_many`) is a batch process: it pays
full startup cost per invocation and its warm caches die with it.  This
package turns the pipeline into infrastructure — one resident asyncio
process that amortizes the process pool, the content-addressed compile
cache and the interned scenario registry across a stream of concurrent
requests:

* :mod:`repro.service.protocol` — the versioned JSON-lines wire protocol
  with strict validation and the bit-identity ``result`` payload contract;
* :mod:`repro.service.server` — admission control, work-conserving batching,
  in-flight request coalescing, the shared cache front and graceful drain;
* :mod:`repro.service.client` — the blocking client with timeouts and
  retry-on-``overloaded``;
* :mod:`repro.service.metrics` — counters, latency histograms and the
  ``stats`` snapshot;
* :mod:`repro.service.loadgen` — the seed-deterministic open/closed-loop
  load harness drawing request mixes from the scenario registry;
* :mod:`repro.service.embedded` — a real server on a background thread
  for tests, benchmarks and ``loadgen --self-serve``;
* :mod:`repro.service.ring` — deterministic consistent hashing over the
  fleet's shards;
* :mod:`repro.service.fleet` — the multi-shard fleet: consistent-hash
  router, the shared cache tier it alone fills from the answers it
  relays, fleet-wide coalescing, shard health/drain/rebalance, and the
  :class:`Fleet` supervisor.

See ``docs/service.md`` for the wire protocol and deployment notes.
"""

from repro.service.client import OverloadedError, ServiceClient, ServiceError
from repro.service.embedded import EmbeddedServer
from repro.service.fleet import Fleet, FleetRouter, SharedCacheTier
from repro.service.loadgen import LoadReport, build_request_plan, render_load_report, run_load
from repro.service.metrics import ServiceMetrics, cache_stats_payload
from repro.service.protocol import (
    PROTOCOL_VERSION,
    CompileRequest,
    ProtocolError,
    resolve_compile_request,
    result_payload,
)
from repro.service.ring import HashRing
from repro.service.server import CompileServer, run_server

__all__ = [
    "CompileRequest",
    "CompileServer",
    "EmbeddedServer",
    "Fleet",
    "FleetRouter",
    "HashRing",
    "LoadReport",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "SharedCacheTier",
    "build_request_plan",
    "cache_stats_payload",
    "render_load_report",
    "resolve_compile_request",
    "result_payload",
    "run_load",
    "run_server",
]
