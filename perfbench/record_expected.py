"""Record ``perfbench/expected.json``, the benchmark's reference outputs.

Run once, from the root of a checkout, at the commit whose outputs are the
reference::

    python3 perfbench/record_expected.py

Benchmark runs only read the file.  Re-record it only when a change is meant
to alter compile results, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import require_program  # noqa: E402


def main() -> int:
    require_program()
    from repro.pipeline.compiler import compile_procedure
    from repro.service.protocol import parse_compile_request, resolve_compile_request, result_payload
    from repro.target.registry import resolve_target

    from perfbench import oracle
    from perfbench.compile_workloads import TARGET, build_inputs
    from perfbench.service_workload import COST_MODEL, candidate_refs, request_message

    machine = resolve_target(TARGET)
    expected = {}
    for workload in ("table1", "large_procs"):
        expected[workload] = {
            p.name: oracle.outcome_summary(
                compile_procedure(p.procedure, machine=machine, cost_model=COST_MODEL))
            for p in build_inputs(workload)
        }
        print(f"{workload}: {len(expected[workload])} procedures")

    seen = set()
    service = {"hot": [], "misses": []}
    hot, misses = candidate_refs()
    for group, refs in (("hot", hot), ("misses", misses)):
        for ref in refs:
            resolved = resolve_compile_request(parse_compile_request(request_message(ref, "r")))
            if resolved.cache_key in seen:
                continue
            seen.add(resolved.cache_key)
            compiled = compile_procedure((resolved.function, resolved.profile),
                                         machine=machine, cost_model=COST_MODEL)
            service[group].append({
                "ref": ref,
                "digest": oracle.result_digest(result_payload(resolved, compiled)),
                "instructions": resolved.function.instruction_count(),
            })
        print(f"service_mixed {group}: {len(service[group])} distinct programs "
              f"of {len(refs)} candidates")
    expected["service_mixed"] = service
    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
