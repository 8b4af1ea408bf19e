"""Steadiness mode: run one workload repeatedly and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload table1 --runs 10

Each run gets its own seed.  For every end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median against the bound
in ``BENCHMARK.json``, plus a host fingerprint (``nproc``, Python version,
calibration kernel median) taken before and after the runs.  The full
report is also written to ``.perfbench/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, WORK_DIR, host_fingerprint, quartile_spread  # noqa: E402
from perfbench.metrics import benchmark_spec  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["notes"] = lines[:-1]
    return result


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    before = host_fingerprint()
    print(f"host before: {json.dumps(before, sort_keys=True)}", flush=True)
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, 0)
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} wall={result['wall_s']:.1f}s {values}",
              flush=True)
    after = host_fingerprint()
    print(f"host after:  {json.dumps(after, sort_keys=True)}", flush=True)

    rows = []
    steady = True
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3, spread = quartile_spread(values)
        if name == "setup_s":
            verdict = "n/a (set-up)"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            steady = False
        print(f"{name:<22} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bound:>6.3f}  {verdict}")
        rows.append({"metric": name, "median": mid, "q1": q1, "q3": q3,
                     "spread": spread, "bound": bound, "values": values})
    all_correct = all(r["correct"] for r in results)
    print(f"all runs correct: {all_correct}; mean wall {sum(r['wall_s'] for r in results) / len(results):.1f} s")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    report = WORK_DIR / f"steady-{args.workload}.json"
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "host_before": before, "host_after": after, "metrics": rows,
                   "runs": results}, handle, indent=1)
    print(f"report: {report.relative_to(ROOT)}")
    return 0 if steady and all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
