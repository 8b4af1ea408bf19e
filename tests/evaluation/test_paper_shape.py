"""The paper's evaluation claims, asserted on the full synthetic suite.

Lupo & Wilken report Figure 5, Table 1 and Table 2 over eleven SPEC CPU2000
benchmarks.  This module regenerates all three from one ``run_suite`` at
scale 1.0 (172 procedures) and asserts the shape the paper reports, plus the
two ablations of the hierarchical algorithm's design choices:

* Table 1 — hierarchical placement never exceeds entry/exit placement or
  shrink-wrapping, with a double-digit average reduction; shrink-wrapping is
  close to the baseline on average and worse than it on gzip, bzip2 and
  twolf; the two biggest hierarchical wins are gcc and crafty;
* Table 2 — the hierarchical pass costs more compile time than
  shrink-wrapping, by a bounded factor;
* Figure 5 — the benchmark order, hierarchical at or below both other
  techniques everywhere, and mcf's negligible overhead;
* the cost-model and region-granularity ablations.

The ablations share the suite's compile cache, so their jump-edge and
maximal-region legs (the default configuration) are answered from it.
"""

import pytest

from repro.cache.store import CompileCache
from repro.evaluation.ablations import cost_model_ablation, region_granularity_ablation
from repro.evaluation.figure5 import figure5
from repro.evaluation.runner import run_suite
from repro.evaluation.table1 import average_row as table1_average
from repro.evaluation.table1 import table1
from repro.evaluation.table2 import average_row as table2_average
from repro.evaluation.table2 import table2

SCALE = 1.0


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return CompileCache(tmp_path_factory.mktemp("paper-shape-cache"))


@pytest.fixture(scope="module")
def suite(cache):
    return run_suite(scale=SCALE, cache=cache)


def test_suite_is_the_full_table1_suite(suite):
    assert sum(b.num_procedures for b in suite.benchmarks) == 172


def test_table1_shape(suite):
    rows = table1(suite)
    by_name = {row.benchmark: row for row in rows}
    average = table1_average(rows)

    for row in rows:
        assert row.optimized_ratio <= 1.0 + 1e-9
        assert row.optimized_ratio <= row.shrinkwrap_ratio + 1e-9

    # Average reduction in the double digits (paper: 15%), shrink-wrapping
    # close to the baseline (paper: <1% reduction).
    assert average.optimized_ratio < 0.95
    assert 0.9 < average.shrinkwrap_ratio < 1.1

    # Crossovers: shrink-wrapping loses to entry/exit on these workloads.
    for name in ("gzip", "bzip2", "twolf"):
        assert by_name[name].shrinkwrap_ratio > 1.0

    # The two biggest hierarchical wins are the gcc- and crafty-like workloads.
    ordered = sorted(rows, key=lambda r: r.optimized_ratio)
    assert {ordered[0].benchmark, ordered[1].benchmark} == {"gcc", "crafty"}

    # mcf has essentially no callee-saved overhead to optimize.
    assert by_name["mcf"].optimized_ratio > 0.99


def test_table2_shape(suite):
    rows = table2(suite)
    average = table2_average(rows)
    # The hierarchical pass is strictly more work than shrink-wrapping alone
    # (it runs shrink-wrapping internally, then builds and walks the PST) ...
    assert average.optimized_seconds > average.shrinkwrap_seconds > 0.0
    # ... but by a bounded factor (the paper measures ~5.4x; anything in the
    # same order of magnitude counts as reproducing the shape).
    assert 1.0 < average.ratio < 50.0

    for row in rows:
        assert row.shrinkwrap_seconds >= 0.0
        assert row.optimized_seconds >= 0.0


def test_placement_passes_are_cheap_relative_to_regalloc(suite):
    """Sanity check on the timing breakdown used by Table 2."""

    total_regalloc = sum(b.pass_seconds.get("regalloc", 0.0) for b in suite.benchmarks)
    total_optimized = sum(b.pass_seconds.get("optimized", 0.0) for b in suite.benchmarks)
    assert total_regalloc > 0.0
    assert total_optimized > 0.0


def test_figure5_shape(suite):
    rows = figure5(suite)
    assert [row.benchmark for row in rows] == [
        "gzip", "vpr", "gcc", "mcf", "crafty", "parser",
        "perlbmk", "gap", "vortex", "bzip2", "twolf",
    ]
    for row in rows:
        # The hierarchical algorithm is never worse than either alternative.
        assert row.optimized <= row.baseline + 1e-6
        assert row.optimized <= row.shrinkwrap + 1e-6
    # mcf's spill overhead is negligible next to every other benchmark (the
    # paper notes it is not visible in the figure).
    by_name = {row.benchmark: row for row in rows}
    largest = max(row.baseline for row in rows)
    assert by_name["mcf"].baseline < 0.05 * largest


def test_cost_model_ablation(suite, cache):
    rows = cost_model_ablation(scale=SCALE, cache=cache)
    # Under the *materialized* metric the jump-edge model is never beaten by
    # more than rounding noise, because the execution-count model ignores the
    # jump instructions its placements may force.
    total_jump_edge = sum(row.variant_a for row in rows)
    total_execution_count = sum(row.variant_b for row in rows)
    assert total_jump_edge <= total_execution_count * 1.02


def test_region_granularity_ablation(suite, cache):
    rows = region_granularity_ablation(scale=SCALE, cache=cache)
    assert [row.benchmark for row in rows] == suite.names()
    for row in rows:
        assert row.variant_a > 0.0
        assert row.variant_b > 0.0
