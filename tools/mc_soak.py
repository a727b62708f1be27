#!/usr/bin/env python3
"""CI gate: Monte-Carlo soak of the paper-scale Table 2 programs.

Compiles QAOA, RCA, MCTR and BV at 200 qubits on 20 nodes, QFT-100@10 and
UCCSD-8@4 (all-to-all, static), plus QAOA-100@10 on a line with
``remap="bursts", overlap=True`` (migrations) and QFT-30@4 on a line at link
capacity 1 (link-capped window searches), then runs ``run_monte_carlo`` at
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
from typing import List, NamedTuple, Optional, Sequence, Tuple

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.circuits.suite import BenchmarkSpec
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import LinkModel, apply_topology
from repro.sim import SimulationConfig, run_monte_carlo


class SoakProgram(NamedTuple):
    """One soaked program: a Table 2 point, its topology and run knobs."""

    family: str
    qubits: int
    nodes: int
    topology: Optional[str] = None
    remap: bool = False
    link_capacity: Optional[int] = None

    @property
    def name(self) -> str:
        name = f"{self.family}-{self.qubits}@{self.nodes}"
        if self.topology is not None:
            name += f" {self.topology}"
        if self.remap:
            name += " remap+overlap"
        if self.link_capacity is not None:
            name += f" cap {self.link_capacity}"
        return name

    def compile(self):
        circuit, network = BenchmarkSpec(self.family, self.qubits,
                                         self.nodes).build()
        if self.topology is not None or self.link_capacity is not None:
            # The capacity is part of the network's (uniform) link model.
            network = apply_topology(
                network, self.topology or "all-to-all",
                link_model=LinkModel.uniform_model(
                    network.latency.t_epr, capacity=self.link_capacity))
        config = (AutoCommConfig(remap="bursts", overlap=True) if self.remap
                  else None)
        return compile_autocomm(circuit, network, config=config, cache=False)


PROGRAMS: Tuple[SoakProgram, ...] = (
    SoakProgram("QAOA", 200, 20), SoakProgram("RCA", 200, 20),
    SoakProgram("MCTR", 200, 20), SoakProgram("BV", 200, 20),
    SoakProgram("QFT", 100, 10), SoakProgram("UCCSD", 8, 4),
    SoakProgram("QAOA", 100, 10, "line", remap=True),
    SoakProgram("QFT", 30, 4, "line", link_capacity=1))

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
    for spec in PROGRAMS:
        program = spec.compile()
        start = time.perf_counter()
        failures = soak(program, args.trials, args.seed)
        elapsed = time.perf_counter() - start
        print(f"{spec.name}: {args.trials} trials, "
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
