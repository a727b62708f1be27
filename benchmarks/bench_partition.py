"""OEE partition perf-regression benchmark (``BENCH_partition.json``).

Times the numpy-vectorized OEE search (:mod:`repro.partition.oee`) against
the preserved scalar reference (:mod:`repro.partition.oee_reference`) for
both fresh partitioning and migration-priced repartitioning, asserts the
two produce bit-identical results, and emits a machine-readable report.
The committed ``BENCH_partition.json`` at the repository root is the perf
trajectory: its top-level ``configs`` come from a ``small``-scale run that
CI re-runs and gates (a config fails when its speedup regresses by more
than 2x), while its ``paper`` section records the paper-scale rows
(QFT-200/300, QAOA up to 64 nodes) plus the Monte-Carlo worker-scaling
table measured when the file was generated.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_partition.py \
        --scale paper --output BENCH_partition.json

or through pytest (``pytest benchmarks/bench_partition.py``), which writes
``benchmarks/results/partition_perf.txt`` like the other harnesses.

Timing protocol: per configuration both implementations run ``--repeat``
times from the same round-robin seed mapping (round-robin scatters qubits
so the search has real exchanges to find on structured families; on QFT's
complete uniform-weight graph every balanced partition ties, so the search
does a full scan and accepts nothing — the scan itself is what is timed)
and the median wall time is reported.  ``mc_scaling`` times
``run_monte_carlo`` at worker counts 1/2/4 on one compiled program and
records ``cpu_count`` so efficiency numbers are honest on small hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # allow standalone runs without PYTHONPATH=src
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        try:
            import repro  # noqa: F401
        except ImportError:
            sys.path.insert(0, src)

from _harness import BENCH_SCALES, emit
from repro.circuits import mctr_circuit, qaoa_maxcut_circuit, qft_circuit
from repro.core import compile_autocomm
from repro.hardware import apply_topology, uniform_network
from repro.partition import (
    oee_partition,
    oee_partition_reference,
    oee_repartition,
    oee_repartition_reference,
    round_robin_mapping,
)
from repro.sim import SimulationConfig, run_monte_carlo

DEFAULT_REPEAT = 3
#: CI fails when a config's measured speedup drops below baseline / this.
REGRESSION_FACTOR = 2.0


class _Config:
    def __init__(self, name: str, build: Callable, nodes: int, topology: str):
        self.name = name
        self.build = build
        self.nodes = nodes
        self.topology = topology


def _configs(scale: str) -> List[_Config]:
    if scale == "small":
        return [
            _Config("qft-48@6", lambda: qft_circuit(48), 6, "ring"),
            _Config("qaoa-64@8", lambda: qaoa_maxcut_circuit(64, seed=7),
                    8, "grid"),
            _Config("mctr-54@6", lambda: mctr_circuit(54), 6, "line"),
        ]
    if scale == "medium":
        return [
            _Config("qft-120@12", lambda: qft_circuit(120), 12, "ring"),
            _Config("qaoa-128@16", lambda: qaoa_maxcut_circuit(128, seed=7),
                    16, "grid"),
            _Config("mctr-126@14", lambda: mctr_circuit(126), 14, "line"),
        ]
    # Paper scale: the Table 2 sizes the speedup acceptance bar is read on —
    # QFT at 100+ qubits and 16-64 node networks.
    return [
        _Config("qft-200@20", lambda: qft_circuit(200), 20, "ring"),
        _Config("qft-300@30", lambda: qft_circuit(300), 30, "grid"),
        _Config("qaoa-192@16", lambda: qaoa_maxcut_circuit(192, seed=7),
                16, "grid"),
        _Config("qaoa-384@32", lambda: qaoa_maxcut_circuit(384, seed=7),
                32, "grid"),
        _Config("qaoa-512@64", lambda: qaoa_maxcut_circuit(512, seed=7),
                64, "grid"),
        _Config("mctr-240@24", lambda: mctr_circuit(240), 24, "line"),
    ]


def _network_for(config: _Config, num_qubits: int):
    network = uniform_network(config.nodes, -(-num_qubits // config.nodes))
    apply_topology(network, config.topology)
    return network


def _results_equal(reference, vectorized) -> bool:
    return (vectorized.mapping.as_dict() == reference.mapping.as_dict()
            and vectorized.final_cut == reference.final_cut
            and vectorized.num_exchanges == reference.num_exchanges
            and vectorized.rounds == reference.rounds
            and vectorized.migration_moves == reference.migration_moves
            and vectorized.migration_cost == reference.migration_cost)


def _time_median(runner: Callable, repeat: int):
    timings = []
    result = None
    for _ in range(repeat):
        begin = time.perf_counter()
        result = runner()
        timings.append(time.perf_counter() - begin)
    return statistics.median(timings), result


def _bench_config(config: _Config, repeat: int) -> Dict[str, object]:
    circuit = config.build()
    network = _network_for(config, circuit.num_qubits)
    seed = round_robin_mapping(circuit.num_qubits, network)

    part_vec_s, part_vec = _time_median(
        lambda: oee_partition(circuit, network, initial=seed), repeat)
    part_ref_s, part_ref = _time_median(
        lambda: oee_partition_reference(circuit, network, initial=seed),
        repeat)
    repart_vec_s, repart_vec = _time_median(
        lambda: oee_repartition(circuit, network, seed), repeat)
    repart_ref_s, repart_ref = _time_median(
        lambda: oee_repartition_reference(circuit, network, seed), repeat)

    return {
        "name": config.name,
        "qubits": circuit.num_qubits,
        "nodes": config.nodes,
        "topology": config.topology,
        "exchanges": part_vec.num_exchanges,
        "part_vec_ms": round(part_vec_s * 1e3, 3),
        "part_ref_ms": round(part_ref_s * 1e3, 3),
        "part_speedup": round(part_ref_s / part_vec_s, 2),
        "repart_vec_ms": round(repart_vec_s * 1e3, 3),
        "repart_ref_ms": round(repart_ref_s * 1e3, 3),
        "repart_speedup": round(repart_ref_s / repart_vec_s, 2),
        "results_equal": (_results_equal(part_ref, part_vec)
                          and _results_equal(repart_ref, repart_vec)),
    }


def _mc_scaling(scale: str) -> Dict[str, object]:
    """Monte-Carlo wall-clock at worker counts 1/2/4, identical results.

    Efficiency is speedup over the sequential run divided by the usable
    parallelism ``min(workers, cpu_count)`` — on a single-core host the
    pool only adds spawn overhead, and the table should say so rather
    than flatter the feature.
    """
    trials = {"small": 10, "medium": 100, "paper": 1000}[scale]
    qubits = {"small": 16, "medium": 24, "paper": 32}[scale]
    network = uniform_network(4, -(-qubits // 4))
    apply_topology(network, "line")
    program = compile_autocomm(qft_circuit(qubits), network)
    cpu_count = os.cpu_count() or 1

    rows = []
    baseline_s = None
    baseline_latencies = None
    for workers in (1, 2, 4):
        config = SimulationConfig(p_epr=0.5, seed=17, trials=trials,
                                  workers=workers, record_trace=False)
        begin = time.perf_counter()
        result = run_monte_carlo(program, config)
        elapsed = time.perf_counter() - begin
        if workers == 1:
            baseline_s = elapsed
            baseline_latencies = result.latencies
        speedup = baseline_s / elapsed
        rows.append({
            "workers": workers,
            "wall_s": round(elapsed, 3),
            "speedup": round(speedup, 2),
            "efficiency": round(speedup / min(workers, cpu_count), 2),
            "identical": result.latencies == baseline_latencies,
        })
    return {"program": f"qft-{qubits}@4", "trials": trials,
            "cpu_count": cpu_count, "rows": rows}


def run_bench(scale: str, repeat: int = DEFAULT_REPEAT,
              mc: bool = True) -> Dict[str, object]:
    configs = [_bench_config(config, repeat) for config in _configs(scale)]
    part = sorted(c["part_speedup"] for c in configs)
    repart = sorted(c["repart_speedup"] for c in configs)
    report = {
        "bench": "partition_perf",
        "schema": 1,
        "scale": scale,
        "repeat": repeat,
        "configs": configs,
        "median_part_speedup": round(statistics.median(part), 2),
        "median_repart_speedup": round(statistics.median(repart), 2),
        "all_results_equal": all(c["results_equal"] for c in configs),
    }
    if mc:
        report["mc_scaling"] = _mc_scaling(scale)
    return report


def check_regression(report: Dict[str, object],
                     baseline: Dict[str, object]) -> List[str]:
    """Compare a fresh report against the committed baseline.

    Speedups (reference time / vectorized time) are machine-independent,
    so they are the regression signal: a config fails when either its
    partition or repartition speedup fell below
    ``baseline_speedup / REGRESSION_FACTOR``.  The mc_scaling section is
    wall-clock on whatever host generated it and is never gated.
    """
    failures = []
    baseline_configs = {c["name"]: c for c in baseline.get("configs", [])}
    for config in report["configs"]:
        if not config["results_equal"]:
            failures.append(f"{config['name']}: vectorized and reference "
                            "searches disagree")
        base = baseline_configs.get(config["name"])
        if base is None:
            continue
        for key in ("part_speedup", "repart_speedup"):
            floor = base[key] / REGRESSION_FACTOR
            if config[key] < floor:
                failures.append(
                    f"{config['name']}: {key} {config[key]}x fell below "
                    f"{floor:.1f}x (baseline {base[key]}x / "
                    f"{REGRESSION_FACTOR})")
    return failures


def _emit_report(report: Dict[str, object]) -> None:
    rows = [dict(config) for config in report["configs"]]
    note = (f"median speedup {report['median_part_speedup']}x partition / "
            f"{report['median_repart_speedup']}x repartition over "
            f"{len(rows)} configs")
    mc = report.get("mc_scaling")
    if mc:
        scaling = ", ".join(f"{r['workers']}w={r['wall_s']}s" for r in mc["rows"])
        note += (f"; MC {mc['trials']} trials on {mc['program']} "
                 f"({mc['cpu_count']} cpus): {scaling}")
    emit("partition_perf", rows,
         columns=["name", "qubits", "nodes", "topology", "exchanges",
                  "part_vec_ms", "part_ref_ms", "part_speedup",
                  "repart_vec_ms", "repart_ref_ms", "repart_speedup",
                  "results_equal"],
         note=note)


def test_bench_partition():
    """Pytest entry point (uses the REPRO_BENCH_SCALE protocol)."""
    from _harness import bench_scale

    report = run_bench(bench_scale())
    _emit_report(report)
    assert report["all_results_equal"], \
        "vectorized and reference OEE searches disagree"
    mc_rows = report["mc_scaling"]["rows"]
    assert all(row["identical"] for row in mc_rows), \
        "parallel Monte-Carlo diverged from the sequential run"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="OEE partition perf-regression benchmark")
    parser.add_argument("--scale", choices=BENCH_SCALES, default="small")
    parser.add_argument("--repeat", type=int, default=DEFAULT_REPEAT)
    parser.add_argument("--no-mc", action="store_true",
                        help="skip the Monte-Carlo worker-scaling table")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report here "
                             "(e.g. BENCH_partition.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_partition.json to check for "
                             ">2x speedup regressions (exit 1 on failure)")
    args = parser.parse_args(argv)

    report = run_bench(args.scale, repeat=args.repeat, mc=not args.no_mc)
    _emit_report(report)

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    if not report["all_results_equal"]:
        print("FAIL: vectorized and reference searches disagree",
              file=sys.stderr)
        return 1
    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            return 1
        baseline = json.loads(args.baseline.read_text())
        if baseline.get("scale") != report["scale"]:
            print(f"note: baseline scale {baseline.get('scale')!r} differs "
                  f"from run scale {report['scale']!r}; comparing by config "
                  "name only")
        failures = check_regression(report, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("regression check against baseline: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
