"""Observability overhead benchmark (the ``BENCH_obs.json`` trajectory).

The span/metrics layer is default-on, so its cost must stay negligible:
this harness A/Bs the fully instrumented pipeline against the same
pipeline with tracing globally disabled (:func:`repro.obs.set_tracing`)
and the simulator with its metrics registry and trace recorder off, on one
QFT configuration per scale.  The committed ``BENCH_obs.json`` at the
repository root records the measured overheads; CI re-runs the benchmark
at ``small`` scale and fails when either overhead exceeds the threshold.

The run also exports the compile's :class:`~repro.obs.RunReport` via
``--report`` so the CI perf-smoke job can upload one report artifact per
run (and implicitly proves the report round-trips through the loader).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --scale small --output BENCH_obs.json --report obs_report.ci.json

Timing protocol: ``--repeat`` rounds (by default the scale's own count),
each timing the full AutoComm
compile once per mode (cold commutation caches) back to back with the
order alternating between rounds; the overhead is the ratio of the two
modes' median times.  Rounds are measured in process CPU time (immune to
the CPU steal of shared runners) with the garbage collector paused, and
interleaving cancels the multi-percent clock drift that swamps the
percent-level cost being measured if modes are timed in separate batches.
The simulator comparison applies the same protocol to a seeded
Monte-Carlo run with the metrics registry on versus off; the event-trace
recorder — its own pre-existing subsystem — keeps its default in both
arms.  The ``small`` scale, which CI gates on, runs enough trials per
round and enough rounds that five runs on one commit spread by less than
half the threshold.  Even so, shared-runner noise floors sit at a few
percent, so the gate measures up to three times and fails only when every
attempt exceeds the threshold: a noise spike rarely repeats, a real
regression always does.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # allow standalone runs without PYTHONPATH=src
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        try:
            import repro  # noqa: F401
        except ImportError:
            sys.path.insert(0, src)

from _harness import BENCH_SCALES, emit
from repro.circuits import qft_circuit
from repro.core import compile_autocomm
from repro.hardware import apply_topology, uniform_network
from repro.ir import clear_commutation_cache
from repro.obs import RunReport, report_for_program, set_tracing
from repro.sim import SimulationConfig, run_monte_carlo

#: CI fails when a measured overhead exceeds this many percent.
DEFAULT_THRESHOLD_PCT = 5.0
#: Independent measurements the gate may take before declaring a failure.
DEFAULT_ATTEMPTS = 3

#: One QFT configuration per scale: (qubits, nodes, Monte-Carlo trials per
#: round, rounds).  A ``small`` trial takes about 0.3 ms, so its arms need
#: 40 trials and 75 rounds before the run-to-run spread of the simulate
#: overhead falls under half the threshold (it reached 6 points at 20
#: trials and 25 rounds).
_SCALE_CONFIG = {
    "small": (16, 4, 40, 75),
    "medium": (24, 4, 50, 25),
    "paper": (32, 8, 100, 25),
}


def _build(scale: str):
    qubits, nodes, trials, _ = _SCALE_CONFIG[scale]
    network = uniform_network(nodes, qubits // nodes)
    apply_topology(network, "line")
    return qft_circuit(qubits), network, trials


def _compile_once(circuit, network, traced: bool):
    previous = set_tracing(traced)
    gc.collect()
    gc.disable()
    try:
        clear_commutation_cache()
        begin = time.process_time()
        program = compile_autocomm(circuit, network)
        return time.process_time() - begin, program
    finally:
        gc.enable()
        set_tracing(previous)


def _simulate_once(program, trials: int, instrumented: bool) -> float:
    # The A/B isolates the metrics registry; the event-trace recorder (its
    # own subsystem, covered by tests/sim/test_trace_disabled.py) keeps its
    # default in both arms.
    config = SimulationConfig(p_epr=0.75, seed=13, trials=trials,
                              record_metrics=instrumented)
    gc.collect()
    gc.disable()
    try:
        begin = time.process_time()
        run_monte_carlo(program, config)
        return time.process_time() - begin
    finally:
        gc.enable()


def _time_compiles(circuit, network, repeat: int):
    """Paired traced/untraced compile timings, order alternating per round.

    Shared-runner clocks drift by several percent over a benchmark's
    lifetime, which dwarfs the instrumentation cost being measured.  Each
    round therefore times both modes back to back (drift cancels within a
    round) with the order flipped every round (within-pair bias cancels
    across rounds); the median of the per-round ratios is the signal.
    """
    _compile_once(circuit, network, traced=True)   # warm caches & imports
    _compile_once(circuit, network, traced=False)
    traced_times: List[float] = []
    untraced_times: List[float] = []
    program = None
    for round_index in range(repeat):
        if round_index % 2 == 0:
            traced_s, program = _compile_once(circuit, network, traced=True)
            untraced_s, _ = _compile_once(circuit, network, traced=False)
        else:
            untraced_s, _ = _compile_once(circuit, network, traced=False)
            traced_s, program = _compile_once(circuit, network, traced=True)
        traced_times.append(traced_s)
        untraced_times.append(untraced_s)
    return traced_times, untraced_times, program


def _time_simulations(program, trials: int, repeat: int):
    """Paired instrumented/stripped Monte-Carlo timings (same protocol)."""
    _simulate_once(program, trials, instrumented=True)
    _simulate_once(program, trials, instrumented=False)
    on_times: List[float] = []
    off_times: List[float] = []
    for round_index in range(repeat):
        if round_index % 2 == 0:
            on_s = _simulate_once(program, trials, instrumented=True)
            off_s = _simulate_once(program, trials, instrumented=False)
        else:
            off_s = _simulate_once(program, trials, instrumented=False)
            on_s = _simulate_once(program, trials, instrumented=True)
        on_times.append(on_s)
        off_times.append(off_s)
    return on_times, off_times


def _overhead_pct(instrumented: Sequence[float],
                  stripped: Sequence[float]) -> float:
    """Ratio of medians: robust to the heavy-tailed jitter of shared
    runners, where a median of per-round ratios still inherits any single
    round's noise."""
    stripped_median = statistics.median(stripped)
    if stripped_median <= 0:
        return 0.0
    return (statistics.median(instrumented) / stripped_median - 1.0) * 100.0


def run_bench(scale: str, repeat: Optional[int] = None) -> Dict[str, object]:
    circuit, network, trials = _build(scale)
    if repeat is None:
        repeat = _SCALE_CONFIG[scale][3]

    traced_times, untraced_times, program = _time_compiles(circuit, network,
                                                           repeat)
    sim_on, sim_off = _time_simulations(program, trials, repeat)

    compile_overhead = _overhead_pct(traced_times, untraced_times)
    sim_overhead = _overhead_pct(sim_on, sim_off)
    qubits, nodes, _, _ = _SCALE_CONFIG[scale]
    return {
        "bench": "obs_overhead",
        "schema": 1,
        "scale": scale,
        "repeat": repeat,
        "config": {"circuit": f"qft{qubits}", "nodes": nodes,
                   "topology": "line", "trials": trials},
        "compile": {
            "traced_ms": round(min(traced_times) * 1e3, 3),
            "untraced_ms": round(min(untraced_times) * 1e3, 3),
            "traced_median_ms": round(statistics.median(traced_times) * 1e3, 3),
            "untraced_median_ms": round(
                statistics.median(untraced_times) * 1e3, 3),
            "overhead_pct": round(compile_overhead, 2),
        },
        "simulate": {
            "instrumented_ms": round(min(sim_on) * 1e3, 3),
            "stripped_ms": round(min(sim_off) * 1e3, 3),
            "overhead_pct": round(sim_overhead, 2),
        },
        "threshold_pct": DEFAULT_THRESHOLD_PCT,
        "_program": program,  # stripped before serialisation
    }


def check_overhead(report: Dict[str, object],
                   threshold_pct: float) -> List[str]:
    failures = []
    for section in ("compile", "simulate"):
        overhead = report[section]["overhead_pct"]
        if overhead > threshold_pct:
            failures.append(f"{section}: observability overhead "
                            f"{overhead:.2f}% exceeds {threshold_pct:.1f}%")
    return failures


def run_gated(scale: str, repeat: Optional[int] = None,
              threshold_pct: float = DEFAULT_THRESHOLD_PCT,
              attempts: int = DEFAULT_ATTEMPTS):
    """Measure up to ``attempts`` times; pass on the first clean attempt.

    Even CPU-time medians over interleaved rounds carry a noise floor of a
    few percent on shared runners, so one estimate above the threshold is
    far more often a noisy measurement than a real regression — but a real
    regression exceeds the threshold on every attempt.  Returns the
    passing report, or the best (lowest worst-section overhead) failing
    one together with its failure messages.
    """
    best_report = None
    best_failures: List[str] = []
    for _ in range(max(1, attempts)):
        report = run_bench(scale, repeat=repeat)
        failures = check_overhead(report, threshold_pct)
        if not failures:
            return report, []
        worst = max(report[s]["overhead_pct"] for s in ("compile", "simulate"))
        if best_report is None or worst < max(
                best_report[s]["overhead_pct"]
                for s in ("compile", "simulate")):
            best_report, best_failures = report, failures
    return best_report, best_failures


def _emit_report(report: Dict[str, object]) -> None:
    rows = [
        {"pipeline": "compile", "with_obs_ms": report["compile"]["traced_ms"],
         "without_obs_ms": report["compile"]["untraced_ms"],
         "overhead_pct": report["compile"]["overhead_pct"]},
        {"pipeline": "simulate",
         "with_obs_ms": report["simulate"]["instrumented_ms"],
         "without_obs_ms": report["simulate"]["stripped_ms"],
         "overhead_pct": report["simulate"]["overhead_pct"]},
    ]
    note = (f"config {report['config']}; threshold {report['threshold_pct']}% "
            f"(CPU-time ratio of medians over {report['repeat']} interleaved "
            "rounds, GC paused; ms columns are round minima; the gate takes "
            f"up to {DEFAULT_ATTEMPTS} attempts)")
    emit("obs_overhead", rows,
         columns=["pipeline", "with_obs_ms", "without_obs_ms",
                  "overhead_pct"],
         note=note)


def test_bench_obs_overhead():
    """Pytest entry point (uses the REPRO_BENCH_SCALE protocol)."""
    from _harness import bench_scale

    report, failures = run_gated(bench_scale())
    report.pop("_program")
    _emit_report(report)
    assert not failures, "; ".join(failures)


def test_run_report_roundtrips(tmp_path):
    """The exported compile RunReport reloads into an equal object."""
    circuit, network, _ = _build("small")
    program = compile_autocomm(circuit, network)
    artifact = report_for_program(
        program, meta={"bench": "obs_overhead", "scale": "small"})
    loaded = RunReport.load(artifact.save(tmp_path / "obs_report.json"))
    assert loaded == artifact
    assert loaded.span_tree() is not None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="observability overhead benchmark")
    parser.add_argument("--scale", choices=BENCH_SCALES, default="small")
    parser.add_argument("--repeat", type=int, default=None,
                        help="interleaved rounds per arm (default: the "
                             "scale's own count)")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD_PCT,
                        help="fail when an overhead exceeds this many "
                             f"percent (default {DEFAULT_THRESHOLD_PCT})")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report here (e.g. BENCH_obs.json)")
    parser.add_argument("--report", type=Path, default=None,
                        help="also export the instrumented compile's "
                             "RunReport artifact here")
    args = parser.parse_args(argv)

    report, failures = run_gated(args.scale, repeat=args.repeat,
                                 threshold_pct=args.threshold)
    program = report.pop("_program")
    _emit_report(report)

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.report is not None:
        artifact = report_for_program(
            program, meta={"bench": "obs_overhead", "scale": args.scale})
        artifact.save(args.report)
        # The loader must accept its own artifact before CI uploads it.
        assert RunReport.load(args.report) == artifact
        print(f"wrote {args.report}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"observability overhead within {args.threshold:.1f}%: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
