#!/usr/bin/env python3
"""CI gate: Monte-Carlo soak of the paper-scale Table 2 programs.

Compiles QAOA, RCA, MCTR and BV at 200 qubits on 20 nodes, QFT-100@10 and
UCCSD-8@4 (all-to-all, static), then runs ``run_monte_carlo`` at
``p_epr=0.5`` one seeded trial at a time, so every trial's executed program
can be checked.  The gate fails (exit status 1) when a trial raises, or
when it executes fewer plan items than the compiled schedule holds or
returns a non-finite or non-positive latency.  Every failure is printed
with the seed that reproduces it::

    python tools/mc_soak.py                  # 300 trials per program
    python tools/mc_soak.py --trials 20 --seed 5
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.circuits.suite import BenchmarkSpec
from repro.core import compile_autocomm
from repro.sim import SimulationConfig, run_monte_carlo

#: (family, qubits, nodes) of the soaked Table 2 programs.
PROGRAMS: Tuple[Tuple[str, int, int], ...] = (
    ("QAOA", 200, 20), ("RCA", 200, 20), ("MCTR", 200, 20), ("BV", 200, 20),
    ("QFT", 100, 10), ("UCCSD", 8, 4))

P_EPR = 0.5


def soak(program, trials: int, seed: int) -> List[str]:
    """Run ``trials`` seeded trials of one program; return the failures."""
    expected = program.schedule.num_scheduled_items()
    seeds = random.Random(seed)
    failures: List[str] = []
    for _ in range(trials):
        config = SimulationConfig(p_epr=P_EPR, seed=seeds.getrandbits(63),
                                  trials=1, record_trace=False)
        try:
            trial = run_monte_carlo(program, config).sample_trial
        except Exception as exc:
            failures.append(f"seed={config.seed}: {type(exc).__name__}: {exc}")
            continue
        executed = trial.num_scheduled_items()
        if (executed != expected or not math.isfinite(trial.latency)
                or trial.latency <= 0):
            failures.append(f"seed={config.seed}: executed {executed} of "
                            f"{expected} items, latency {trial.latency}")
    return failures


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=300,
                        help="seeded trials per program (default 300)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the trial seeds (default 0)")
    args = parser.parse_args(list(argv))

    failed = 0
    for family, qubits, nodes in PROGRAMS:
        circuit, network = BenchmarkSpec(family, qubits, nodes).build()
        program = compile_autocomm(circuit, network, cache=False)
        start = time.perf_counter()
        failures = soak(program, args.trials, args.seed)
        elapsed = time.perf_counter() - start
        print(f"{family}-{qubits}@{nodes}: {args.trials} trials, "
              f"{len(failures)} failed, {args.trials / elapsed:.1f} trials/s")
        for failure in failures:
            print(f"  {failure}")
        failed += len(failures)
    if failed:
        print(f"FAIL: {failed} trial(s) failed")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
