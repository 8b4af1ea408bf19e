#!/usr/bin/env python3
"""Run the synthetic SPEC CPU2000-integer-like campaign (Figure 5, Tables 1 and 2).

This regenerates the paper's whole evaluation section on the synthetic suite:

* Figure 5 — total dynamic spill overhead per benchmark and technique,
* Table 1 — overhead ratios relative to entry/exit placement (with the
  paper's numbers side by side),
* Table 2 — incremental compile time of shrink-wrapping and the hierarchical
  algorithm.

Run with::

    python examples/spec_campaign.py [scale] [workers] [cache-dir]

where the optional ``scale`` (default 1.0) multiplies the number of
procedures per benchmark, ``workers`` (default: all available cores) sizes
the process pool the suite is sharded over — ``workers=1`` forces a serial
run — and ``cache-dir`` enables the persistent compile cache, making a
repeated campaign nearly free.  Parallel and serial runs produce
bit-identical measurements (only the compile-time columns of Table 2 are
CPU-time readings), so pick whatever your machine is good at.
"""

import sys

from repro.evaluation import (
    figure5,
    render_figure5,
    render_table1,
    render_table2,
    run_suite,
    table1,
    table2,
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else None  # None = auto
    cache = sys.argv[3] if len(sys.argv) > 3 else None
    print(f"Generating and compiling the synthetic suite "
          f"(scale={scale}, workers={workers or 'auto'}, "
          f"cache={cache or 'off'}) ...\n")
    measurement = run_suite(scale=scale, workers=workers, cache=cache)

    print(render_figure5(figure5(measurement)))
    print()
    print(render_table1(table1(measurement)))
    print()
    # Passing the measurement appends the honest timing note: pass CPU
    # totals (summed across workers) next to wall-clock elapsed.
    print(render_table2(table2(measurement), measurement))
    print()
    print("Note: absolute overheads and times are specific to the synthetic suite and")
    print("this Python implementation; the comparison *between techniques* is the")
    print("quantity the paper reports and the one reproduced here.")


if __name__ == "__main__":
    main()
