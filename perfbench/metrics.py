"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; :func:`check_complete` keeps the two
in step at run time.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from perfbench.common import ROOT

END_TO_END = {
    "setup_s": "s",
    "compile_instr_per_s": "instr/s",
    "size_scaling_ratio": "ratio",
    "dyn_overhead_ratio": "ratio",
    "spill_instrs": "count",
    "correct_frac": "frac",
    "peak_rss_mb": "MiB",
    "req_ms_p50": "ms",
    "req_ms_p95": "ms",
    "within_slo_frac": "frac",
    "throughput_rps": "1/s",
}

#: Layers on the path of the service workload only.  On the in-process
#: compile workloads nothing calls them, and they read 0.
SERVICE_LAYERS = {
    "ir.cache_key_us": "us",
    "cache.get_hit_us": "us",
    "cache.put_us": "us",
    "cache.entry_kb": "kB",
    "cache.hit_frac": "frac",
    "service.decode_us": "us",
    "service.resolve_us": "us",
    "service.payload_us": "us",
    "service.encode_us": "us",
    "service.queue_ms_p50": "ms",
    "service.queue_ms_p95": "ms",
    "service.batch_compile_ms_p50": "ms",
    "service.residual_ms_p50": "ms",
    "service.batch_mean_size": "req/batch",
    "service.coalesced_frac": "frac",
    "service.refused_frac": "frac",
    "loadgen.late_ms_p95": "ms",
}

COMPILE_LAYERS = {
    "workloads.build_s": "s",
    "ir.cfg_us_per_instr": "us/instr",
    "analysis.pst_us_per_instr": "us/instr",
    "analysis.dominance_us_per_instr": "us/instr",
    "analysis.liveness_us_per_instr": "us/instr",
    "analysis.loops_us_per_instr": "us/instr",
    "regalloc.us_per_instr": "us/instr",
    "regalloc.interference_us_per_instr": "us/instr",
    "regalloc.coloring_us_per_instr": "us/instr",
    "regalloc.spilled_vregs": "count",
    "spill.entry_exit_us_per_instr": "us/instr",
    "spill.shrinkwrap_us_per_instr": "us/instr",
    "spill.hierarchical_us_per_instr": "us/instr",
    "spill.verify_us_per_instr": "us/instr",
    "spill.overhead_us_per_instr": "us/instr",
    "spill.saves.baseline": "count",
    "spill.saves.shrinkwrap": "count",
    "spill.saves.optimized": "count",
    "spill.restores.baseline": "count",
    "spill.restores.shrinkwrap": "count",
    "spill.restores.optimized": "count",
    "pipeline.self_us_per_instr": "us/instr",
    "calibration.kernel_ms": "ms",
}

PER_LAYER = {**COMPILE_LAYERS, **SERVICE_LAYERS}


def off_path_layer_metrics() -> Dict[str, Tuple[float, str]]:
    """The service-only layers, at 0, for a workload that never calls them."""

    return {name: (0.0, unit) for name, unit in SERVICE_LAYERS.items()}


def check_complete(metrics: Dict[str, Tuple[float, str]], trace: bool) -> None:
    """Raise unless ``metrics`` has exactly the declared names and units."""

    declared = PER_LAYER if trace else END_TO_END
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}, unit {wrong}")


def benchmark_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
