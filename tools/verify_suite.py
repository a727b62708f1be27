#!/usr/bin/env python3
"""CI gate: run the static verifier over the whole benchmark matrix.

Sweeps every benchmark family x topology x remap mode, plus the paper's
sparse and GP-TP baselines, compiles each combination and runs every
program-scope check of :mod:`repro.verify` over the artifact; with
``--simulate`` (the CI default) each program is additionally executed
once deterministically and the trace sanitizer passes run over the
result.  The gate demands **zero** diagnostics —
warnings included — across the matrix, and writes a JSON diagnostics
report suitable for upload as a CI artifact.

Usage::

    python tools/verify_suite.py --output verify_report.json
    python tools/verify_suite.py --qubits 12 --nodes 4 --no-simulate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.baselines import compile_gp_tp, compile_sparse
from repro.circuits import BENCHMARK_FAMILIES, build_benchmark
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import SUPPORTED_TOPOLOGIES, apply_topology
from repro.persist import CompileCache
from repro.sim import SimulationConfig, simulate_program
from repro.verify import sanitize_simulation, verify_program

#: ``bursts+overlap`` stitches phase boundaries with per-qubit edges
#: instead of barriers (``AutoCommConfig.overlap``).
REMAP_MODES = ("never", "bursts", "bursts+overlap")

#: The paper's baselines (Table 3 and Figure 16).  They are never cached,
#: so a warm sweep serves only the AutoComm combinations from the cache.
BASELINES = {"sparse": compile_sparse, "gp-tp": compile_gp_tp}


def compile_combination(family: str, topology: str,
                        variant: "str | AutoCommConfig", qubits: int,
                        nodes: int, cache=None):
    """Compile one combination on a fresh circuit and network.

    ``variant`` is a remap mode of AutoComm (:data:`REMAP_MODES`), a
    baseline's name (:data:`BASELINES`) or an explicit AutoComm config.
    """
    circuit, network = build_benchmark(family, qubits, nodes)
    if topology != "all-to-all":
        apply_topology(network, topology)
    if isinstance(variant, AutoCommConfig):
        config = variant
    elif variant in BASELINES:
        return BASELINES[variant](circuit, network)
    else:
        config = (None if variant == "never"
                  else AutoCommConfig(remap="bursts", phase_blocks=4,
                                      overlap=variant == "bursts+overlap"))
    return compile_autocomm(circuit, network, config=config, cache=cache)


def run_matrix(qubits: int, nodes: int, simulate: bool,
               cache: "CompileCache | None" = None) -> dict:
    entries = []
    total_diagnostics = 0
    for family in sorted(BENCHMARK_FAMILIES):
        for topology in SUPPORTED_TOPOLOGIES:
            for variant in REMAP_MODES + tuple(BASELINES):
                label = f"{family.lower()}/{topology}/{variant}"
                program = compile_combination(family, topology, variant,
                                              qubits, nodes, cache=cache)
                report = verify_program(program)
                if simulate:
                    config = SimulationConfig(ideal_links=True)
                    result = simulate_program(program, config)
                    report.merge(sanitize_simulation(program, result,
                                                     config))
                entry = {
                    "family": family,
                    "topology": topology,
                    # The remap mode, or the baseline's name.
                    "remap": variant,
                    "compiler": program.compiler,
                    "checks_run": list(report.checks_run),
                    "clean": report.clean,
                    "diagnostics": [d.as_dict() for d in report.diagnostics],
                }
                entries.append(entry)
                total_diagnostics += len(report.diagnostics)
                status = ("ok" if report.clean
                          else f"{len(report.diagnostics)} diagnostics")
                print(f"verify {label}: {len(report.checks_run)} checks, "
                      f"{status}")
                if not report.clean:
                    for diagnostic in report.diagnostics:
                        print(f"  {diagnostic}")
    payload = {
        "command": "verify_suite",
        "schema": 1,
        "qubits": qubits,
        "nodes": nodes,
        "simulate": simulate,
        "combinations": len(entries),
        "total_diagnostics": total_diagnostics,
        "entries": entries,
    }
    if cache is not None:
        payload["cache"] = cache.counters()
        payload["cacheable"] = sum(entry["remap"] in REMAP_MODES
                                   for entry in entries)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="verify every benchmark family x topology x remap mode "
                    "compiles to a diagnostics-free artifact")
    parser.add_argument("--qubits", type=int, default=12,
                        help="circuit width per benchmark (default 12)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="network nodes (default 4)")
    parser.add_argument("--no-simulate", dest="simulate",
                        action="store_false",
                        help="skip the deterministic-execution sanitize "
                             "passes (static checks only)")
    parser.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="write the JSON diagnostics report to PATH")
    parser.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="compile through a persistent compile cache "
                             "rooted at DIR (repro.persist)")
    parser.add_argument("--expect-warm", action="store_true",
                        help="fail unless every AutoComm combination was "
                             "served from the cache (requires --cache-dir); "
                             "proves a pre-populated cache covers the whole "
                             "matrix (the baselines are never cached)")
    args = parser.parse_args(argv)

    if args.expect_warm and args.cache_dir is None:
        parser.error("--expect-warm requires --cache-dir")
    cache = None if args.cache_dir is None else CompileCache(args.cache_dir)

    payload = run_matrix(args.qubits, args.nodes, args.simulate, cache=cache)
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    print(f"{payload['combinations']} combinations, "
          f"{payload['total_diagnostics']} diagnostics")
    if cache is not None:
        counters = payload["cache"]
        print(f"compile cache: {counters['hits']} hits, "
              f"{counters['misses']} misses, {counters['stores']} stores")
        if args.expect_warm and counters["hits"] != payload["cacheable"]:
            print(f"FAIL: expected all {payload['cacheable']} AutoComm "
                  f"combinations served warm, got {counters['hits']} hits "
                  f"({counters['misses']} misses)", file=sys.stderr)
            return 1
    return 1 if payload["total_diagnostics"] else 0


if __name__ == "__main__":
    sys.exit(main())
