"""Experiment runners reproducing the paper's evaluation section.

* :mod:`repro.evaluation.runner` — compiles the synthetic SPEC-like suite and
  aggregates per-benchmark overheads and pass timings.
* :mod:`repro.evaluation.figure5` — total dynamic spill overhead per benchmark
  for Baseline / Shrinkwrap / Optimized (the paper's Figure 5).
* :mod:`repro.evaluation.table1` — overhead ratios relative to the baseline
  (the paper's Table 1).
* :mod:`repro.evaluation.table2` — incremental compile times of
  shrink-wrapping and the hierarchical algorithm (the paper's Table 2).
* :mod:`repro.evaluation.ablations` — extra studies the paper motivates but
  does not tabulate: execution-count vs. jump-edge cost model, and maximal
  vs. canonical SESE regions.
* :mod:`repro.evaluation.parallel` — the process-pool engine behind
  ``compile_many`` that shards a batch at procedure granularity
  (``workers=`` on the runners and the CLI).
* :mod:`repro.evaluation.reporting` — plain-text table and bar-chart rendering.
"""

from repro.evaluation.parallel import available_cpus, effective_workers, resolve_workers
from repro.evaluation.runner import BenchmarkMeasurement, SuiteMeasurement, run_benchmark, run_suite
from repro.evaluation.figure5 import Figure5Row, figure5, render_figure5
from repro.evaluation.table1 import Table1Row, render_table1, table1
from repro.evaluation.table2 import Table2Row, render_table2, table2
from repro.evaluation.ablations import (
    AblationRow,
    cost_model_ablation,
    region_granularity_ablation,
    render_ablation,
)

__all__ = [
    "AblationRow",
    "BenchmarkMeasurement",
    "Figure5Row",
    "SuiteMeasurement",
    "Table1Row",
    "Table2Row",
    "available_cpus",
    "effective_workers",
    "cost_model_ablation",
    "figure5",
    "resolve_workers",
    "region_granularity_ablation",
    "render_ablation",
    "render_figure5",
    "render_table1",
    "render_table2",
    "run_benchmark",
    "run_suite",
    "table1",
    "table2",
]
