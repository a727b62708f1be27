#!/usr/bin/env python3
"""CI gate: aggregation work counters of a cold QFT-200@20 compile.

Compiles the Table 2 program QFT-200 on 20 nodes (all-to-all, static, no
compile cache), prints the compile's span tree, and checks the
``aggregation`` span's work counters against fixed linear bounds.  Only
counters are gated, never wall time, so the verdict is the same on every
host.  The gate fails (exit status 1) when a counter exceeds its bound::

    python tools/aggregation_smoke.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.circuits.suite import BenchmarkSpec
from repro.core import compile_autocomm

#: (family, qubits, nodes) of the compiled program.
PROGRAM: Tuple[str, int, int] = ("QFT", 200, 20)

#: counter -> ((factor, counter), ...): the counter may not exceed the sum.
#: ``relinked_items`` against ``window_items + blocks`` says the splices
#: cost only the windows; the rest cap each counter per input gate.
BOUNDS: Tuple[Tuple[str, Tuple[Tuple[int, str], ...]], ...] = (
    ("relinked_items", ((1, "window_items"), (1, "blocks"))),
    ("relinked_items", ((3, "gates"),)),
    ("window_items", ((4, "gates"),)),
    ("deferred_checks", ((3, "gates"),)),
    ("commute_calls", ((1, "gates"),)),
)


def check(counters: Dict[str, float]) -> List[str]:
    """Print one line per bound; return the exceeded ones."""
    failures: List[str] = []
    for name, terms in BOUNDS:
        bound = sum(factor * counters[base] for factor, base in terms)
        formula = " + ".join(base if factor == 1 else f"{factor} * {base}"
                             for factor, base in terms)
        line = f"{name} = {counters[name]:g} <= {formula} = {bound:g}"
        ok = counters[name] <= bound
        print(f"  {'ok  ' if ok else 'FAIL'} {line}")
        if not ok:
            failures.append(line)
    return failures


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.parse_args(list(argv))

    family, qubits, nodes = PROGRAM
    circuit, network = BenchmarkSpec(family, qubits, nodes).build()
    program = compile_autocomm(circuit, network, cache=False)
    print(program.spans.render())
    print(f"{family}-{qubits}@{nodes} aggregation bounds:")
    failures = check(program.spans.find("aggregation").counters)
    if failures:
        print(f"FAIL: {len(failures)} bound(s) exceeded")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
