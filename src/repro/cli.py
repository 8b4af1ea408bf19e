"""Command-line interface.

Subcommands::

    repro-spill figure5   [--scale S] [--cost-model MODEL] [--target NAME] [--workers N]
                          [--cache-dir DIR | --no-cache]
    repro-spill table1    [--scale S] [--cost-model MODEL] [--target NAME] [--workers N]
                          [--cache-dir DIR | --no-cache]
    repro-spill table2    [--scale S] [--target NAME] [--workers N]
                          [--cache-dir DIR | --no-cache]
    repro-spill ablation  {cost-model,regions} [--scale S] [--target NAME] [--workers N]
                          [--cache-dir DIR | --no-cache]
    repro-spill lint      [FILE ...] [--scenario NAME ... | --all-scenarios]
                          [--corpus DIR] [--target NAME] [--seed N] [--count N]
                          [--select CODE ...] [--ignore CODE ...]
                          [--strict] [--json] [--baseline FILE]
                          [--write-baseline FILE]
                                                 # IR static analysis (rules R001..):
                                                 # exit 1 on errors, --strict on any
                                                 # non-baselined finding
    repro-spill scenarios                        # list the registered scenario families
    repro-spill example   [--cost-model MODEL]   # the paper's worked example
    repro-spill targets                          # list registered machine descriptions
    repro-spill place     FILE [--cost-model MODEL] [--target NAME]
                                                 # place spill code for a textual IR file
    repro-spill profile   [--target NAME] [--scenario NAME ...] [--seed N]
                          [--count N] [--top N] [--json] [--output FILE]
                                                 # cProfile a seeded cold compile leg
                                                 # (the hot-path measurement tool)
    repro-spill cache     {stats,clear} --cache-dir DIR [--json]
                                                 # inspect / empty a compile cache
    repro-spill serve     [--host H] [--port P] [--workers N] [--cache-dir DIR]
                          [--max-queue N] [--batch-max N]
                          [--health-interval S] [--no-policy]
                                                 # run the compile server (JSON lines
                                                 # over TCP; graceful drain on SIGTERM)
    repro-spill fleet     [--host H] [--port P] [--shards N]
                          [--workers N] [--cache-root DIR] [--batch-max N]
                          [--max-queue N] [--stall-timeout S] [--remediate]
                                                 # multi-shard fleet: router + N
                                                 # shard processes; the router
                                                 # coalesces and fills the tier;
                                                 # --remediate lets the policy engine
                                                 # quarantine + restart wedged shards
    repro-spill loadgen   [--host H] [--port P | --self-serve | --fleet N]
                          [--mix MIX] [--mode open|closed] [--requests N]
                          [--clients N] [--rate R] [--seed N] [--target NAME ...]
                          [--check] [--expect-coalesced]
                          [--record-metrics FILE] [--metrics-interval S]
                                                 # deterministic load harness +
                                                 # serving-invariant checker;
                                                 # --record-metrics samples stats into
                                                 # a metrics-trace/v1 JSONL file
    repro-spill stats     [--host H] [--port P] [--prom | --json]
                          [--watch] [--interval S] [--count N]
                                                 # one stats snapshot, or a streaming
                                                 # --watch feed; --prom prints the
                                                 # metrics-text/v1 scrape rendering
    repro-spill policy    replay --trace FILE [--pin FILE]
                                                 # replay a recorded metric trace
                                                 # through the policy engine; print
                                                 # the decision records (JSONL) and
                                                 # diff them against a --pin file

``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable) enables
the persistent compile cache: repeated runs of an unchanged suite reuse
every per-procedure result.  Cache statistics are printed to *stderr* so
cached and uncached runs produce byte-identical stdout.

(Also reachable as ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.cache.store import CACHE_VERSION, CompileCache
from repro.evaluation.ablations import (
    cost_model_ablation,
    region_granularity_ablation,
    render_ablation,
)
from repro.evaluation.figure5 import figure5, render_figure5
from repro.evaluation.runner import run_suite
from repro.evaluation.table1 import render_table1, table1
from repro.evaluation.table2 import render_table2, table2
from repro.pipeline.timing import describe_timing
from repro.target.registry import DEFAULT_TARGET, available_targets, get_target


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on the number of procedures per benchmark (default 1.0)",
    )


def _add_target(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target",
        choices=available_targets(),
        default=DEFAULT_TARGET,
        help=f"target machine description (default: {DEFAULT_TARGET}, the paper's machine)",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool workers for the evaluation (default: all cores; 1 = serial)",
    )


def _add_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR",
        help=(
            "persistent compile-cache directory (default: $REPRO_CACHE_DIR "
            "if set, else caching is off)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the compile cache even when --cache-dir/$REPRO_CACHE_DIR is set",
    )


def _make_cache(args: argparse.Namespace) -> Optional[CompileCache]:
    """The run's cache store, honouring ``--no-cache``; ``None`` = disabled."""

    if getattr(args, "no_cache", False) or not getattr(args, "cache_dir", None):
        return None
    return CompileCache(args.cache_dir)


def _report_cache(cache: Optional[CompileCache]) -> None:
    """Print cache statistics to stderr (stdout must stay byte-identical)."""

    if cache is not None:
        print(f"[cache] {cache.stats.describe()}", file=sys.stderr)


def _add_cost_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cost-model",
        choices=("jump_edge", "execution_count"),
        default="jump_edge",
        help="cost model for the hierarchical algorithm (default: jump_edge, as in the paper)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spill",
        description="Post register allocation spill code optimization (CGO 2006) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig5 = subparsers.add_parser("figure5", help="regenerate the paper's Figure 5")
    _add_scale(fig5)
    _add_cost_model(fig5)
    _add_target(fig5)
    _add_workers(fig5)
    _add_cache(fig5)
    fig5.add_argument("--no-chart", action="store_true", help="omit the ASCII bar chart")

    tab1 = subparsers.add_parser("table1", help="regenerate the paper's Table 1")
    _add_scale(tab1)
    _add_cost_model(tab1)
    _add_target(tab1)
    _add_workers(tab1)
    _add_cache(tab1)

    tab2 = subparsers.add_parser("table2", help="regenerate the paper's Table 2")
    _add_scale(tab2)
    _add_target(tab2)
    _add_workers(tab2)
    _add_cache(tab2)

    ablation = subparsers.add_parser("ablation", help="run an ablation study")
    ablation.add_argument("study", choices=("cost-model", "regions"))
    _add_scale(ablation)
    _add_target(ablation)
    _add_workers(ablation)
    _add_cache(ablation)

    scenarios = subparsers.add_parser(
        "scenarios", help="list the registered scenario families"
    )
    scenarios.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output including each family's catalog "
        "combination codes",
    )

    catalog = subparsers.add_parser(
        "catalog", help="inspect the versioned workload catalog"
    )
    catalog_actions = catalog.add_subparsers(dest="action", required=True)
    catalog_list = catalog_actions.add_parser(
        "list", help="list every catalog entry (combination codes + aliases)"
    )
    catalog_list.add_argument(
        "--kind",
        choices=("scenario", "pyfunc"),
        default=None,
        help="restrict to one entry kind",
    )
    catalog_list.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    catalog_show = catalog_actions.add_parser(
        "show", help="show one entry (resolves aliases)"
    )
    catalog_show.add_argument("name", help="combination code or alias")
    catalog_show.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    catalog_actions.add_parser(
        "lint",
        help="deep-validate the catalog: schema, combination codes, alias "
        "targets, builders, and pyfunc translatability",
    )

    frontend = subparsers.add_parser(
        "frontend", help="translate real CPython functions to repro IR"
    )
    frontend_actions = frontend.add_subparsers(dest="action", required=True)
    frontend_translate = frontend_actions.add_parser(
        "translate", help="translate one function and print its IR"
    )
    frontend_translate.add_argument(
        "spec",
        metavar="MODULE:FUNC",
        help="importable module and function, e.g. "
        "repro.workloads.catalog.pyfuncs.textbook:gcd",
    )
    frontend_translate.add_argument(
        "--fingerprint-only",
        action="store_true",
        help="print only the translated function's fingerprint",
    )

    subparsers.add_parser("example", help="walk through the paper's Figure 2/3 example")

    subparsers.add_parser("targets", help="list the registered machine descriptions")

    cache = subparsers.add_parser(
        "cache", help="inspect or empty a persistent compile cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (stats only; same shape as the "
        "service stats snapshot's 'cache' object)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the compile server (JSON-lines protocol over TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=7814,
        help="TCP port (default 7814; 0 = ephemeral, printed on startup)",
    )
    _add_workers(serve)
    _add_cache(serve)
    serve.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="admission-queue bound; beyond it requests are rejected as "
        "'overloaded' (default 256)",
    )
    serve.add_argument(
        "--batch-max", type=int, default=None, metavar="N",
        help="most unique entries one batch takes from the queue (default 16)",
    )
    serve.add_argument(
        "--health-interval", type=float, default=None, metavar="SECONDS",
        help="rolling-window health sampling period (default 1.0)",
    )
    serve.add_argument(
        "--no-policy", action="store_true",
        help="disable the self-protection policy engine (admission "
        "shedding under queue pressure stays off)",
    )

    fleet = subparsers.add_parser(
        "fleet",
        help="run a multi-shard serving fleet (router + N shard processes "
        "+ shared cache tier)",
    )
    fleet.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    fleet.add_argument(
        "--port", type=int, default=7814,
        help="router TCP port (default 7814; 0 = ephemeral, printed on startup)",
    )
    fleet.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="shard processes to spawn (default 3)",
    )
    fleet.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="process-pool workers per shard (default 1)",
    )
    fleet.add_argument(
        "--cache-root", default=None, metavar="DIR",
        help="per-shard compile-cache root (shard i uses DIR/si; default: "
        "no disk cache, the shared tier still dedupes fleet-wide)",
    )
    fleet.add_argument(
        "--batch-max", type=int, default=None, metavar="N",
        help="per-shard bound on the unique entries one batch takes (default 16)",
    )
    fleet.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="per-shard admission-queue bound (default 256)",
    )
    fleet.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="wedged-shard watchdog bound (default 30)",
    )
    fleet.add_argument(
        "--remediate", action="store_true",
        help="let the policy engine act on fleet health: quarantine "
        "wedged shards, then drain + restart them (decisions are logged "
        "as structured [policy] records on stderr)",
    )

    loadgen = subparsers.add_parser(
        "loadgen", help="deterministic load generator + serving-invariant checker"
    )
    loadgen.add_argument("--host", default="127.0.0.1", help="server address")
    loadgen.add_argument("--port", type=int, default=7814, help="server port (default 7814)")
    loadgen.add_argument(
        "--self-serve",
        action="store_true",
        help="start an embedded server for the duration of the run "
        "(ignores --host/--port; handy for smokes and benchmarks)",
    )
    loadgen.add_argument(
        "--fleet", type=int, default=None, metavar="N",
        help="start an N-shard fleet (router + shard processes + shared "
        "tier) for the duration of the run and drive it; also checks the "
        "fleet-wide single-compile invariant (ignores --host/--port)",
    )
    loadgen.add_argument(
        "--mix", choices=("uniform", "hot", "mixed", "catalog"), default="mixed",
        help="request mix (default: mixed — distinct programs plus a "
        "zipf-skewed hot set with duplicates; catalog — round-robin over "
        "the workload catalog's entries, translated pyfuncs first)",
    )
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed loop (saturating clients) or open loop (fixed arrival rate)",
    )
    loadgen.add_argument("--requests", type=int, default=50, help="plan length (default 50)")
    loadgen.add_argument("--clients", type=int, default=4, help="concurrent connections (default 4)")
    loadgen.add_argument(
        "--rate", type=float, default=100.0,
        help="open-loop arrivals per second (default 100)",
    )
    loadgen.add_argument("--seed", type=int, default=0, help="plan seed (default 0)")
    loadgen.add_argument(
        "--target", action="append", dest="targets", metavar="NAME",
        choices=available_targets(), default=None,
        help="target(s) the plan cycles through (repeatable; default: parisc)",
    )
    loadgen.add_argument(
        "--check", action="store_true",
        help="verify every response byte-for-byte against a local "
        "compile_procedure oracle",
    )
    loadgen.add_argument(
        "--expect-coalesced", action="store_true",
        help="fail unless the server reports at least one coalesced request",
    )
    loadgen.add_argument(
        "--record-metrics", default=None, metavar="FILE",
        help="sample the server's stats during the run and write them to "
        "FILE as a metrics-trace/v1 JSONL file (replayable with "
        "'repro-spill policy replay')",
    )
    loadgen.add_argument(
        "--metrics-interval", type=float, default=0.25, metavar="SECONDS",
        help="sampling period for --record-metrics (default 0.25)",
    )
    # Server knobs for --self-serve runs.
    loadgen.add_argument("--workers", type=int, default=1, metavar="N",
                         help="workers of the embedded --self-serve server (default 1)")
    loadgen.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory of the embedded --self-serve server")

    stats = subparsers.add_parser(
        "stats",
        help="fetch a running server's stats snapshot (one shot or --watch)",
    )
    stats.add_argument("--host", default="127.0.0.1", help="server address")
    stats.add_argument("--port", type=int, default=7814, help="server port (default 7814)")
    stats.add_argument(
        "--prom", action="store_true",
        help="print the metrics-text/v1 plaintext scrape rendering "
        "instead of the human summary",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="print the raw stats snapshot as JSON",
    )
    stats.add_argument(
        "--watch", action="store_true",
        help="stream snapshots until interrupted (or --count is reached)",
    )
    stats.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period for --watch (default 1.0)",
    )
    stats.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop --watch after N snapshots (default: until interrupted)",
    )

    policy = subparsers.add_parser(
        "policy",
        help="replay recorded metric traces through the policy engine",
    )
    policy_actions = policy.add_subparsers(dest="policy_command", required=True)
    replay = policy_actions.add_parser(
        "replay",
        help="replay a metrics-trace/v1 file; print decision records as JSONL",
    )
    replay.add_argument(
        "--trace", required=True, metavar="FILE",
        help="metrics-trace/v1 JSONL file (from loadgen --record-metrics)",
    )
    replay.add_argument(
        "--pin", default=None, metavar="FILE",
        help="expected decision records; exit 1 when the replay differs",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the IR static-analysis rules over files, scenarios or a corpus",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="FILE",
        help="textual IR files to lint (linted like the service: "
        "single-exit normalized, verified, uniform profile)",
    )
    lint.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        default=None,
        help="scenario family to lint (repeatable)",
    )
    lint.add_argument(
        "--all-scenarios",
        action="store_true",
        help="lint every registered scenario family",
    )
    lint.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="lint every *.ir fixture in DIR, using its *.profile.json "
        "sidecar when present (e.g. tests/workloads/corpus)",
    )
    _add_target(lint)
    lint.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    lint.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="procedures per scenario family (default: each family's own count)",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        default=None,
        help="run only these rule codes (repeatable, e.g. --select R001)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODE",
        default=None,
        help="skip these rule codes (repeatable)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on ANY non-baselined finding (default: errors only)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: the same lint-report/v1 payloads "
        "the compile service returns",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress the findings recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="record every current finding to FILE and exit 0",
    )

    place = subparsers.add_parser(
        "place", help="run the placement pipeline on a textual IR file"
    )
    place.add_argument("file", help="path to a textual IR module")
    _add_cost_model(place)
    _add_target(place)

    profile = subparsers.add_parser(
        "profile",
        help="cProfile a seeded cold compile_many leg (the hot-path measurement tool)",
    )
    _add_target(profile)
    profile.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        default=None,
        help="scenario family to compile (repeatable; default: every family)",
    )
    profile.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    profile.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="procedures per family (default: each family's own count)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="rows reported, sorted by cumulative time (default 30)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report for trend tracking (see docs/performance.md)",
    )
    profile.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    return parser


def _command_example() -> int:
    from repro.spill import (
        place_entry_exit,
        place_hierarchical,
        place_shrink_wrap,
        placement_dynamic_overhead,
    )
    from repro.workloads import paper_example

    example = paper_example()
    function, profile, usage = example.function, example.profile, example.usage
    print("Paper worked example (Figures 2-4), dynamic overhead per technique:")
    baseline = place_entry_exit(function, usage)
    shrinkwrap = place_shrink_wrap(function, usage)
    print(f"  entry/exit placement : {placement_dynamic_overhead(function, profile, baseline).total:g}")
    print(f"  Chow shrink-wrapping : {placement_dynamic_overhead(function, profile, shrinkwrap).total:g}")
    for model in ("execution_count", "jump_edge"):
        result = place_hierarchical(function, usage, profile, cost_model=model)
        overhead = placement_dynamic_overhead(function, profile, result.placement)
        print(f"  hierarchical ({model:>15s}): save/restore {overhead.save_count + overhead.restore_count:g}, "
              f"jump blocks {overhead.jump_count:g}")
        for decision in result.decisions:
            print(f"      {decision}")
    return 0


def _command_place(path: str, cost_model: str, target: str) -> int:
    from repro.ir.parser import parse_module
    from repro.ir.passes import ensure_single_exit
    from repro.pipeline.compiler import compile_procedure
    from repro.profiling.synthetic import uniform_profile

    machine = get_target(target)
    with open(path, "r", encoding="utf-8") as handle:
        module = parse_module(handle.read())
    print(f"target {machine.describe()}")
    for function in module.functions:
        ensure_single_exit(function)
        profile = uniform_profile(function, invocations=1000.0)
        compiled = compile_procedure((function, profile), machine=machine, cost_model=cost_model)
        print(f"function {function.name}: {compiled.allocation.describe()}")
        for technique in ("baseline", "shrinkwrap", "optimized"):
            overhead = compiled.callee_saved_overhead(technique)
            print(f"  {technique:10s} callee-saved overhead: {overhead:g}")
    return 0


def _command_targets() -> int:
    for name in available_targets():
        print(f"{name:10s} {get_target(name).describe()}")
    return 0


def _lint_gather(args) -> List:
    """Collect ``(function, profile)`` pairs from every requested source.

    Files go through the same normalization the compile service applies
    (single-exit pass, structural verification, uniform profile), so a
    file linted here and the same IR sent to a server produce
    byte-identical reports.
    """

    import json as json_module

    from repro.ir.parser import parse_module
    from repro.ir.passes import ensure_single_exit
    from repro.ir.verifier import IRVerificationError, verify_function
    from repro.profiling.synthetic import (
        profile_from_branch_probabilities,
        uniform_profile,
    )
    from repro.workloads.scenarios import build_scenario, scenario_names

    items = []
    for path in args.paths:
        with open(path, "r", encoding="utf-8") as handle:
            module = parse_module(handle.read())
        for function in module.functions:
            ensure_single_exit(function)
            verify_function(function, require_single_exit=True)
            items.append((function, uniform_profile(function, invocations=1000.0)))
    families = list(args.scenarios or [])
    if args.all_scenarios:
        families = list(scenario_names())
    for family in families:
        for generated in build_scenario(
            family, seed=args.seed, count=args.count, machine=get_target(args.target)
        ):
            items.append((generated.function, generated.profile))
    if args.corpus:
        for name in sorted(os.listdir(args.corpus)):
            if not name.endswith(".ir"):
                continue
            path = os.path.join(args.corpus, name)
            with open(path, "r", encoding="utf-8") as handle:
                module = parse_module(handle.read())
            for function in module.functions:
                errors = verify_function(function, collect=True)
                if errors:
                    raise IRVerificationError(errors)
                sidecar = path[: -len(".ir")] + ".profile.json"
                if os.path.exists(sidecar):
                    with open(sidecar, "r", encoding="utf-8") as handle:
                        data = json_module.load(handle)
                    profile = profile_from_branch_probabilities(
                        function,
                        invocations=data["invocations"],
                        probabilities={
                            tuple(key.split("->", 1)): value
                            for key, value in data["probabilities"].items()
                        },
                    )
                else:
                    profile = uniform_profile(function, invocations=1000.0)
                items.append((function, profile))
    return items


def _command_lint(args) -> int:
    import json as json_module

    from repro.ir.parser import IRParseError
    from repro.ir.verifier import IRVerificationError
    from repro.lint import (
        LintConfigError,
        Severity,
        apply_baseline,
        lint_function,
        load_baseline,
        write_baseline,
    )
    from repro.lint.engine import LINT_SCHEMA
    from repro.workloads.scenarios import scenario_names

    if not (args.paths or args.scenarios or args.all_scenarios or args.corpus):
        print(
            "error: nothing to lint (give FILEs, --scenario/--all-scenarios "
            "or --corpus)",
            file=sys.stderr,
        )
        return 2
    unknown = [n for n in (args.scenarios or []) if n not in scenario_names()]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)}; "
            f"expected one of {', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return 2
    machine = get_target(args.target)
    try:
        items = _lint_gather(args)
        reports = [
            lint_function(
                function,
                profile=profile,
                machine=machine,
                select=args.select,
                ignore=args.ignore,
            )
            for function, profile in items
        ]
    except (LintConfigError, IRParseError, IRVerificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        entries = write_baseline(args.write_baseline, reports)
        print(
            f"baseline written to {args.write_baseline}: {entries} finding(s)",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        try:
            suppressed = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reports = [apply_baseline(report, suppressed) for report in reports]

    if args.json:
        payload = {
            "schema": LINT_SCHEMA,
            "reports": [report.payload() for report in reports],
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            if report.diagnostics:
                print(report.render())
        totals = {severity.value: 0 for severity in Severity}
        for report in reports:
            for severity, count in report.counts().items():
                totals[severity] += count
        print(
            f"linted {len(reports)} function(s): "
            f"{totals['error']} error(s), {totals['warn']} warning(s), "
            f"{totals['info']} note(s)"
        )
    findings = sum(len(report.diagnostics) for report in reports)
    errors = sum(report.error_count for report in reports)
    if errors or (args.strict and findings):
        return 1
    return 0


def _command_scenarios(as_json: bool = False) -> int:
    from repro.workloads.catalog import get_catalog
    from repro.workloads.scenarios import SCENARIO_FAMILIES

    catalog = get_catalog()
    if as_json:
        import json

        payload = [
            {
                "name": family.name,
                "tags": list(family.tags),
                "description": family.description,
                "catalog_codes": list(catalog.codes_for_family(family.name)),
            }
            for family in SCENARIO_FAMILIES
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for family in SCENARIO_FAMILIES:
        tags = ",".join(family.tags)
        codes = ",".join(catalog.codes_for_family(family.name))
        line = f"{family.name:18s} [{tags}] {family.description}"
        if codes:
            line += f" (catalog: {codes})"
        print(line)
    return 0


def _command_catalog(args) -> int:
    import json

    from repro.workloads.catalog import CatalogError, get_catalog

    try:
        catalog = get_catalog()
    except CatalogError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "list":
        entries = [
            catalog.resolve(name) for name in catalog.names(getattr(args, "kind", None))
        ]
        if args.json:
            payload = {
                "schema": "workload-catalog/v1",
                "version": catalog.version,
                "entries": [
                    {
                        "name": e.name,
                        "kind": e.kind,
                        "family": e.family,
                        "module": e.module,
                        "func": e.func,
                        "pressure": e.pressure,
                        "cfg": e.cfg,
                        "description": e.description,
                    }
                    for e in entries
                ],
                "aliases": dict(sorted(catalog.aliases.items())),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        for entry in entries:
            source = entry.family if entry.kind == "scenario" else f"{entry.module}:{entry.func}"
            print(f"{entry.name:22s} {entry.kind:8s} {source:28s} {entry.description}")
        if catalog.aliases:
            print()
            for alias, target in sorted(catalog.aliases.items()):
                print(f"{alias:22s} alias -> {target}")
        return 0
    if args.action == "show":
        try:
            entry = catalog.resolve(args.name)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        if args.json:
            payload = {
                "name": entry.name,
                "kind": entry.kind,
                "description": entry.description,
                "stem": entry.stem,
                "version": entry.version,
                "pressure": entry.pressure,
                "pressure_scale": entry.pressure_scale,
                "cfg": entry.cfg,
                "family": entry.family,
                "module": entry.module,
                "func": entry.func,
                "inputs": [list(pair) for pair in entry.inputs],
                "default_count": entry.default_count,
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"name          : {entry.name}")
        print(f"kind          : {entry.kind}")
        print(f"description   : {entry.description}")
        print(f"pressure      : {entry.pressure} (scale {entry.pressure_scale:g})")
        print(f"cfg class     : {entry.cfg}")
        if entry.kind == "scenario":
            print(f"family        : {entry.family}")
        else:
            print(f"function      : {entry.module}:{entry.func}")
            ranges = ", ".join(f"[{low}, {high}]" for low, high in entry.inputs)
            print(f"input ranges  : {ranges}")
        print(f"default count : {entry.default_count}")
        return 0
    # lint
    problems = catalog.lint()
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}")
        return 1
    print(
        f"catalog ok: {len(catalog.names())} entries "
        f"({len(catalog.names('scenario'))} scenario, "
        f"{len(catalog.names('pyfunc'))} pyfunc), "
        f"{len(catalog.aliases)} aliases"
    )
    return 0


def _command_frontend(args) -> int:
    from repro.frontend import UnsupportedOpcodeError, translate_spec
    from repro.ir.printer import print_function

    try:
        translated = translate_spec(args.spec)
    except UnsupportedOpcodeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ImportError, AttributeError, TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.fingerprint_only:
        print(translated.fingerprint())
        return 0
    print(print_function(translated.function))
    print(f"; python    : {translated.module_name}.{translated.python_name}")
    print(f"; arguments : {translated.argcount}")
    if translated.calls:
        print(f"; calls     : {', '.join(sorted(translated.calls))}")
    print(f"; fingerprint: {translated.fingerprint()}")
    return 0


def _command_cache(action: str, cache_dir: Optional[str], as_json: bool = False) -> int:
    if not cache_dir:
        print(
            "error: no cache directory (pass --cache-dir or set $REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    cache = CompileCache(cache_dir)
    if action == "stats":
        if as_json:
            import json

            from repro.service.metrics import cache_stats_payload

            # The same shape as the service stats snapshot's "cache"
            # object, so one parser serves dashboards fed by either.
            payload = {
                "directory": str(cache.directory),
                "version": CACHE_VERSION,
                "cache": cache_stats_payload(cache),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"cache directory : {cache.directory}")
        print(f"store version   : v{CACHE_VERSION}")
        print(f"entries         : {cache.entry_count()}")
        print(f"disk bytes      : {cache.disk_bytes()}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cache entries from {cache.directory}")
    return 0


def _command_profile(args) -> int:
    from repro.evaluation.profile_compile import DEFAULT_TOP, render_report, run_profile
    from repro.workloads.scenarios import scenario_names

    unknown = [
        name for name in (args.scenarios or []) if name not in scenario_names()
    ]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)}; "
            f"expected one of {', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return 2
    if args.count is not None and args.count < 1:
        print(f"error: --count must be >= 1, got {args.count}", file=sys.stderr)
        return 2
    report = run_profile(
        families=args.scenarios,
        seed=args.seed,
        count=args.count,
        target=args.target,
        top=args.top if args.top is not None else DEFAULT_TOP,
    )
    if args.json:
        import json

        text = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    else:
        text = render_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"profile written to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _command_serve(args) -> int:
    import asyncio

    from repro.service.server import (
        DEFAULT_BATCH_MAX_REQUESTS,
        DEFAULT_HEALTH_INTERVAL,
        DEFAULT_MAX_QUEUE,
        run_server,
    )

    cache = _make_cache(args)

    def _ready(server) -> None:
        # Scripts (the CI service job among them) wait for this line.
        print(f"repro-spill serve: listening on {server.host}:{server.port}", flush=True)
        print(
            f"  workers={server.workers if server.workers is not None else 'auto'} "
            f"max_queue={server.max_queue} batch_max={server.batch_max_requests} "
            f"cache={'on' if server.cache is not None else 'off'}",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(
            run_server(
                host=args.host,
                port=args.port,
                workers=args.workers,
                cache=cache,
                max_queue=args.max_queue if args.max_queue is not None else DEFAULT_MAX_QUEUE,
                batch_max_requests=(
                    args.batch_max if args.batch_max is not None else DEFAULT_BATCH_MAX_REQUESTS
                ),
                health_interval=(
                    args.health_interval
                    if args.health_interval is not None
                    else DEFAULT_HEALTH_INTERVAL
                ),
                enable_policy=not args.no_policy,
                ready_callback=_ready,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        pass
    print("repro-spill serve: drained, bye", file=sys.stderr)
    return 0


def _command_fleet(args) -> int:
    import threading

    from repro.service.fleet import DEFAULT_STALL_TIMEOUT_SECONDS, Fleet
    from repro.service.server import DEFAULT_BATCH_MAX_REQUESTS, DEFAULT_MAX_QUEUE

    stopping = threading.Event()

    def _on_signal(_signum, _frame) -> None:
        stopping.set()

    import signal as signal_module

    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        signal_module.signal(signum, _on_signal)

    with Fleet(
        shards=args.shards,
        backend="process",
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_root=args.cache_root,
        batch_max_requests=(
            args.batch_max if args.batch_max is not None else DEFAULT_BATCH_MAX_REQUESTS
        ),
        max_queue=args.max_queue if args.max_queue is not None else DEFAULT_MAX_QUEUE,
        stall_timeout=(
            args.stall_timeout
            if args.stall_timeout is not None
            else DEFAULT_STALL_TIMEOUT_SECONDS
        ),
        remediate=args.remediate,
    ) as fleet:
        # Scripts (the CI fleet job among them) wait for this line.
        print(f"repro-spill fleet: listening on {fleet.host}:{fleet.port}", flush=True)
        for shard in fleet.shards:
            print(
                f"repro-spill fleet: shard {shard.shard_id} pid {shard.pid} "
                f"on {shard.host}:{shard.port}",
                flush=True,
            )
        stopping.wait()
    print("repro-spill fleet: drained, bye", file=sys.stderr)
    return 0


def _command_loadgen(args) -> int:
    from repro.service.embedded import EmbeddedServer
    from repro.service.fleet import Fleet
    from repro.service.loadgen import build_request_plan, render_load_report, run_load

    plan = build_request_plan(
        mix=args.mix,
        requests=args.requests,
        seed=args.seed,
        targets=tuple(args.targets) if args.targets else ("parisc",),
    )

    def _run(host: str, port: int):
        return run_load(
            host,
            port,
            plan,
            mode=args.mode,
            clients=args.clients,
            rate=args.rate,
            check_oracle=args.check,
            check_fleet=args.fleet is not None,
            record_metrics=args.record_metrics,
            metrics_interval=args.metrics_interval,
        )

    if args.fleet is not None and args.self_serve:
        print("error: --fleet and --self-serve are mutually exclusive", file=sys.stderr)
        return 2
    if args.fleet is not None:
        with Fleet(
            shards=args.fleet,
            backend="process",
            workers=args.workers,
            cache_root=args.cache_dir,
        ) as fleet:
            report = _run(fleet.host, fleet.port)
    elif args.self_serve:
        with EmbeddedServer(workers=args.workers, cache=args.cache_dir) as embedded:
            report = _run(embedded.host, embedded.port)
    else:
        report = _run(args.host, args.port)

    print(render_load_report(report))
    if args.record_metrics:
        print(
            f"loadgen: {report.metric_samples} metric sample(s) written to "
            f"{args.record_metrics}",
            file=sys.stderr,
        )
    failed = not report.ok
    if args.expect_coalesced:
        server_coalesced = 0
        stats = report.server_stats
        if stats is not None and stats.get("schema") == "fleet-stats/v1":
            # The router coalesces cacheable duplicates before they reach
            # a shard; shards coalesce the rest.  Count both.
            server_coalesced = stats.get("router", {}).get("coalesced", 0) + sum(
                (shard.get("stats") or {}).get("requests", {}).get("coalesced", 0)
                for shard in stats.get("shards", [])
            )
        elif stats is not None:
            server_coalesced = stats.get("requests", {}).get("coalesced", 0)
        coalesced = max(report.coalesced_responses, server_coalesced)
        if coalesced == 0:
            print("loadgen: FAILED — expected at least one coalesced request", file=sys.stderr)
            failed = True
    if failed and not report.ok:
        print("loadgen: FAILED — errors or violated invariants (see above)", file=sys.stderr)
    return 1 if failed else 0


def _render_stats_line(stats) -> str:
    """One human-readable line per snapshot (the ``--watch`` row format)."""

    health = stats.get("health") or {}
    fast = (health.get("windows") or {}).get("fast", {})
    latency = fast.get("latency", {})
    rates = fast.get("rates", {})
    if stats.get("schema") == "fleet-stats/v1":
        router = stats.get("router", {})
        shards = stats.get("shards", [])
        healthy = sum(1 for shard in shards if shard.get("healthy"))
        head = (
            f"fleet completed={router.get('completed', 0)} "
            f"errors={router.get('errors', 0)} shards={healthy}/{len(shards)}"
        )
    else:
        requests = stats.get("requests", {})
        head = (
            f"server completed={requests.get('completed', 0)} "
            f"errors={requests.get('errors', 0)} "
            f"queue={stats.get('queue', {}).get('depth', 0)}"
        )
    return (
        f"{head} | fast({fast.get('seconds', 0):g}s) "
        f"qps={rates.get('qps', 0.0):g} err={rates.get('error_rate', 0.0):g} "
        f"p50={latency.get('p50', 0.0):g}ms p95={latency.get('p95', 0.0):g}ms "
        f"p99={latency.get('p99', 0.0):g}ms"
    )


def _command_stats(args) -> int:
    import json as json_module
    import time as time_module

    from repro.service.client import ServiceClient, ServiceError

    if args.prom and args.json:
        print("error: --prom and --json are mutually exclusive", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"error: --interval must be > 0, got {args.interval:g}", file=sys.stderr)
        return 2
    snapshots = args.count if args.watch else 1
    if snapshots is not None and snapshots < 1:
        print(f"error: --count must be >= 1, got {snapshots}", file=sys.stderr)
        return 2
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            emitted = 0
            while snapshots is None or emitted < snapshots:
                if args.prom:
                    print(client.metrics_text(), end="", flush=True)
                elif args.json:
                    print(
                        json_module.dumps(client.stats(), sort_keys=True), flush=True
                    )
                else:
                    print(_render_stats_line(client.stats()), flush=True)
                emitted += 1
                if snapshots is not None and emitted >= snapshots:
                    break
                time_module.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - operator ^C
        return 0
    except (ConnectionError, OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _command_policy(args) -> int:
    from repro.service.health import load_metric_trace
    from repro.service.policy import render_decisions, replay_decisions

    try:
        samples = load_metric_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    decisions = replay_decisions(samples)
    rendered = render_decisions(decisions)
    sys.stdout.write(rendered)
    sys.stdout.flush()
    print(
        f"policy replay: {len(samples)} sample(s), {len(decisions)} decision(s)",
        file=sys.stderr,
    )
    if args.pin:
        try:
            with open(args.pin, "r", encoding="utf-8") as handle:
                expected = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if rendered != expected:
            print(
                f"policy replay: decisions DIFFER from the pin {args.pin}",
                file=sys.stderr,
            )
            return 1
        print(f"policy replay: decisions match the pin {args.pin}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "figure5":
        cache = _make_cache(args)
        measurement = run_suite(
            scale=args.scale,
            cost_model=args.cost_model,
            machine=args.target,
            workers=args.workers,
            cache=cache,
        )
        print(render_figure5(figure5(measurement), chart=not args.no_chart))
        _report_cache(cache)
        return 0
    if args.command == "table1":
        cache = _make_cache(args)
        measurement = run_suite(
            scale=args.scale,
            cost_model=args.cost_model,
            machine=args.target,
            workers=args.workers,
            cache=cache,
        )
        print(render_table1(table1(measurement)))
        _report_cache(cache)
        return 0
    if args.command == "table2":
        cache = _make_cache(args)
        measurement = run_suite(
            scale=args.scale, machine=args.target, workers=args.workers, cache=cache
        )
        # The timing note (CPU total vs wall-clock) goes to stderr with the
        # cache stats: it reports this run's times, which must not break the
        # byte-identity of cached stdout across runs.
        print(render_table2(table2(measurement)))
        note = describe_timing(
            measurement.cpu_seconds_total(),
            measurement.wall_seconds,
            measurement.workers_used,
        )
        if cache is not None and cache.stats.hits:
            # Cache hits replay the *cold* run's pass timings (that keeps
            # warm measurements bit-identical), so on a warm run the CPU
            # total is not time spent by this run — say so.
            note += (
                f" [CPU total includes original compile timings replayed for "
                f"{cache.stats.hits} cache hit(s), not spent by this run]"
            )
        print(note, file=sys.stderr)
        _report_cache(cache)
        return 0
    if args.command == "ablation":
        cache = _make_cache(args)
        if args.study == "cost-model":
            rows = cost_model_ablation(
                scale=args.scale, machine=args.target, workers=args.workers, cache=cache
            )
            print(render_ablation(rows, "jump-edge", "execution-count",
                                  "Ablation: cost model (materialized overhead)"))
        else:
            rows = region_granularity_ablation(
                scale=args.scale, machine=args.target, workers=args.workers, cache=cache
            )
            print(render_ablation(rows, "maximal", "canonical",
                                  "Ablation: SESE region granularity"))
        _report_cache(cache)
        return 0
    if args.command == "lint":
        return _command_lint(args)
    if args.command == "scenarios":
        return _command_scenarios(getattr(args, "json", False))
    if args.command == "catalog":
        return _command_catalog(args)
    if args.command == "frontend":
        return _command_frontend(args)
    if args.command == "example":
        return _command_example()
    if args.command == "targets":
        return _command_targets()
    if args.command == "place":
        return _command_place(args.file, args.cost_model, args.target)
    if args.command == "cache":
        return _command_cache(args.action, args.cache_dir, getattr(args, "json", False))
    if args.command == "profile":
        return _command_profile(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "fleet":
        return _command_fleet(args)
    if args.command == "loadgen":
        return _command_loadgen(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "policy":
        return _command_policy(args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
