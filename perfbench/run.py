"""Command line of the Table 2 benchmark (see ``table2bench`` for details).

    python3 perfbench/run.py --workload remap-line --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload mc-table2 --seed 3 --seconds 5 --scale smoke
    python3 perfbench/run.py --regen-expected

Prints a report, then one JSON line.  Exits 2 without a result when the
``repro`` sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("table2", "smoke"),
                        default="table2")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite perfbench/expected_outputs.json")
    args = parser.parse_args(argv)
    # One closed-loop client and no threads: keep numpy's BLAS serial too.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    try:
        import table2bench
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.regen_expected:
        records = table2bench.regenerate_expected()
        print(f"wrote {len(records)} programs to {table2bench.EXPECTED_PATH}")
        return 0
    workloads = list(table2bench.WORKLOADS)
    if args.workload != "all":
        if args.workload not in workloads:
            parser.error(f"--workload must be 'all' or one of {workloads}")
        workloads = [args.workload]
    for workload in workloads:
        result, lines = table2bench.run_workload(
            workload, args.seed, args.seconds, bool(args.trace), args.scale)
        print("\n".join(lines))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
