"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans around the program's public calls and prints every
per-layer metric instead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import emit_result, pin_to_one_cpu, require_program  # noqa: E402

WORKLOADS = ("table1", "large_procs", "service_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_program()
    pin_to_one_cpu()

    from perfbench.metrics import check_complete

    if args.workload == "service_mixed":
        from perfbench.service_workload import run_service_workload as runner
    else:
        from perfbench.compile_workloads import run_compile_workload as runner
    correct, attempted, failed, metrics = runner(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    check_complete(metrics, bool(args.trace))
    emit_result(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
