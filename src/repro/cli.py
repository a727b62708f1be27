"""Command-line interface.

``python -m repro.cli compile program.qasm --nodes 4`` compiles an OpenQASM
2.0 program for a distributed machine and prints the communication report;
``python -m repro.cli generate qft --qubits 16`` writes a benchmark circuit
as QASM; ``python -m repro.cli compare program.qasm --nodes 4`` runs every
compiler on the same program.

``python -m repro.cli simulate program.qasm --nodes 4`` executes the
compiled program on the modelled hardware with the discrete-event engine of
:mod:`repro.sim`: it first replays the schedule deterministically
(``p_epr = 1.0``) and cross-checks the analytical latency, then — when
``--p-epr`` is below 1 or ``--trials`` exceeds 1 — runs a seeded
Monte-Carlo study of stochastic EPR generation and prints the latency
distribution.  ``--seed`` and ``--trials`` make stochastic runs reproducible
from the command line; ``--retry-latency`` prices failed EPR attempts,
``--link-capacity`` bounds concurrent EPR generations per link, and
``--timeline`` renders the executed schedule as an ASCII per-node timeline.

``--topology`` (with ``--swap-overhead`` and ``--grid-columns``) constrains
the EPR link graph of the machine for ``compile``, ``compare``,
``simulate`` and ``profile``: non-adjacent node pairs route through
entanglement swapping, the whole pipeline compiles topology-aware
(latency-weighted partitioning, per-pair EPR latencies, swap-inclusive
``total_epr_pairs`` accounting) and the simulator books contention on the
physical links of each route.

``--link-spec`` (a JSON file with per-link ``t_epr``/``capacity``/``p_epr``)
or ``--link-profile`` (a named preset such as ``distance_scaled`` or
``noisy_spine``) makes the links heterogeneous: routing detours around slow
fibres, the compiler prices each link it crosses, and the simulator books
each link against its own capacity and samples generation with its own
success probability.  The global ``--link-capacity`` flag is the uniform
special case (every link, same bound) and conflicts with ``--link-spec``.

``--report out.json`` on ``compile``, ``compare`` and ``simulate`` writes a
versioned :class:`~repro.obs.report.RunReport` JSON artifact (compilation
metrics, compile stage timings, simulation summary and the simulator's
metrics registry); ``python -m repro.cli trace program.qasm --nodes 4``
exports a Chrome-trace-format ``.trace.json`` of the compile span tree and
the simulated execution for chrome://tracing or Perfetto, and ``simulate
--trace-out events.jsonl`` dumps the raw simulator event trace as JSON
Lines.

``python -m repro.cli verify program.qasm --nodes 4`` runs the static
verifier of :mod:`repro.verify` over the compiled artifact — dependency-DAG
acyclicity, schedule-item coverage, mapping/migration legality, EPR route
validity and schedule causality/booking feasibility — without executing it;
``--simulate`` additionally sanitizes one deterministic run's op records
and trace, ``--trace FILE`` validates a Chrome-trace JSON export, and
``--json PATH`` writes the diagnostics report as a machine-readable
artifact.  The same checks are available as ``--verify`` on ``compile``,
``compare`` and ``simulate``; error diagnostics make all of them exit
non-zero.

``--remap bursts`` (with ``--phase-blocks``) switches the autocomm pipeline
to phase-structured compilation: the aggregated program is segmented at
burst-phase boundaries, each later phase re-partitions incrementally from
the previous phase's mapping (every qubit move charged its routed teleport
latency), and the resulting migrations are explicit teleports the scheduler
and simulator execute.  ``compare --remap bursts`` adds the remapped
pipeline as an extra contender row; ``compare --fidelity`` appends an
estimated-fidelity column.  ``simulate --ideal-links`` runs the Monte-Carlo
study under the analytical scheduler's idealisation (capacities and
per-link loss ignored, per-link latencies kept).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .analysis import render_table, simulation_row, simulation_timeline
from .analysis.fidelity import DEFAULT_ERROR_MODEL, estimate_fidelity
from .baselines import (
    compile_cat_only,
    compile_gp_tp,
    compile_no_commute,
    compile_plain_schedule,
    compile_sparse,
)
from .circuits import BENCHMARK_FAMILIES, build_benchmark
from .core import AutoCommConfig, compile_autocomm
from .hardware import (DEFAULT_LATENCY, LINK_PROFILES, SUPPORTED_TOPOLOGIES,
                       LinkModel, apply_topology, link_model_from_profile,
                       load_link_spec, topology_graph, uniform_network)
from .ir import Circuit, from_qasm, to_qasm
from .obs import (PID_COMPILE, RunReport, report_for_program,
                  simulation_trace_events, span_trace_events,
                  validate_trace_events, write_chrome_trace)
from .sim import (SimulationConfig, run_monte_carlo, simulate_program,
                  validate_schedule)
from .verify import sanitize_simulation, verify_program

__all__ = ["main", "build_parser"]

COMPILERS: Dict[str, Callable] = {
    "autocomm": compile_autocomm,
    "sparse": compile_sparse,
    "gp-tp": compile_gp_tp,
    "cat-only": compile_cat_only,
    "no-commute": compile_no_commute,
    "plain-schedule": compile_plain_schedule,
}


def _add_machine_arguments(parser: argparse.ArgumentParser, *,
                           qasm: Optional[str] = "required",
                           nodes: Optional[int] = None,
                           compiler: bool = True) -> None:
    """The program and machine flags of every compiling command.

    ``qasm`` is ``"required"``, ``"optional"`` (``verify``, which may check
    a trace file alone and requires ``--nodes`` itself once given a
    program) or None (``cache warm``, which builds its own circuits and
    defaults ``--nodes`` to ``nodes``).
    ``compiler=False`` leaves out ``--compiler`` for commands that run a
    fixed set of compilers.
    """
    required = qasm == "required"
    if qasm is not None:
        parser.add_argument("qasm", type=Path, nargs=None if required else "?",
                            help="input .qasm file")
    if required:
        nodes_help = "number of quantum nodes"
    elif qasm is not None:
        nodes_help = "number of quantum nodes (required with a qasm input)"
    else:
        nodes_help = f"number of quantum nodes (default {nodes})"
    parser.add_argument("--nodes", type=int, required=required,
                        default=nodes, help=nodes_help)
    parser.add_argument("--qubits-per-node", type=int, default=None,
                        help="data qubits per node (default: fit the "
                             "program)")
    parser.add_argument("--comm-qubits", type=int, default=2,
                        help="communication qubits per node (default 2)")
    if compiler:
        parser.add_argument("--compiler", choices=sorted(COMPILERS),
                            default="autocomm",
                            help="compiler to run (default autocomm)")
    _add_topology_arguments(parser)
    _add_remap_arguments(parser)


def _add_topology_arguments(parser: argparse.ArgumentParser) -> None:
    """Network-topology options of every compiling command."""
    parser.add_argument("--topology", choices=SUPPORTED_TOPOLOGIES,
                        default="all-to-all",
                        help="EPR link topology of the network; non-adjacent "
                             "pairs route through entanglement swapping "
                             "(default all-to-all)")
    parser.add_argument("--swap-overhead", type=float, default=1.0,
                        help="extra EPR latency per entanglement-swapping "
                             "hop, as a multiple of the link latency "
                             "(default 1.0)")
    parser.add_argument("--grid-columns", type=int, default=None,
                        help="columns of the grid topology "
                             "(default: near-square)")
    parser.add_argument("--link-spec", type=Path, default=None,
                        metavar="PATH",
                        help="JSON file with per-link EPR parameters "
                             "(t_epr/capacity/p_epr; see the README's "
                             "heterogeneous-links section); routing, "
                             "compilation and simulation price each link "
                             "individually")
    parser.add_argument("--link-profile", choices=sorted(LINK_PROFILES),
                        default=None,
                        help="named heterogeneous link preset derived from "
                             "the topology (mutually exclusive with "
                             "--link-spec)")


def _add_remap_arguments(parser: argparse.ArgumentParser) -> None:
    """Dynamic-remapping options of every compiling command."""
    parser.add_argument("--remap", choices=("never", "bursts"),
                        default="never",
                        help="dynamic inter-phase remapping for the autocomm "
                             "pipeline: 'bursts' segments the program at "
                             "burst-phase boundaries and re-partitions "
                             "incrementally between phases, charging every "
                             "qubit move its routed teleport latency "
                             "(default never = one static mapping)")
    parser.add_argument("--phase-blocks", type=int, default=8,
                        help="burst blocks per phase under --remap bursts "
                             "(default 8)")
    parser.add_argument("--overlap", action="store_true",
                        help="zero-bubble phase boundaries under --remap "
                             "bursts: migration teleports overlap with "
                             "compute through per-qubit dependencies "
                             "instead of a global barrier (never slower "
                             "than the barrier schedule)")
    parser.add_argument("--phase-sizing", choices=("fixed", "auto"),
                        default="fixed",
                        help="how phase boundaries are placed under --remap "
                             "bursts: 'fixed' cuts every --phase-blocks "
                             "burst blocks, 'auto' searches a slack window "
                             "around that quota for the boundary with the "
                             "cheapest migration bill (default fixed)")


def _add_sampling_arguments(parser: argparse.ArgumentParser, *,
                            p_epr: float = 1.0,
                            workers: bool = True) -> None:
    """The EPR sampling flags of compare/simulate/profile/trace.

    ``p_epr`` is the command's default success probability;
    ``workers=False`` leaves out ``--workers`` for a single-run command.
    """
    parser.add_argument("--p-epr", type=float, default=p_epr,
                        help="EPR attempt success probability "
                             f"(default {p_epr})")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for stochastic runs (default 0)")
    if workers:
        parser.add_argument("--workers", type=int, default=1,
                            help="worker processes for the Monte-Carlo "
                                 "trials (default 1 = in-process); results "
                                 "are identical for any value")


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    """``--cache-dir``, shared by the compiling and the cache commands."""
    parser.add_argument("--cache-dir", type=Path, default=None, metavar="PATH",
                        help="persistent compile-cache directory, which "
                             "stores compiled artifacts and serves repeat "
                             "compiles of the same inputs from disk "
                             "(default: the REPRO_CACHE_DIR environment "
                             "variable)")


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Compile-cache options shared by compile/compare/simulate/verify."""
    _add_cache_dir_argument(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the compile cache even when "
                             "REPRO_CACHE_DIR is set")


def _cache_for_args(args):
    """The ``cache`` argument of ``compile_autocomm`` the cache flags select."""
    if getattr(args, "no_cache", False):
        return False
    return getattr(args, "cache_dir", None)


def _add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--report`` and ``--verify`` options of compile/compare/simulate."""
    parser.add_argument("--report", type=Path, default=None, metavar="PATH",
                        help="write a versioned JSON run report (metrics, "
                             "compile stage timings, simulation summary) "
                             "to PATH")
    parser.add_argument("--verify", action="store_true",
                        help="run the static verifier (repro.verify) over "
                             "every compiled program and fail on error "
                             "diagnostics")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoComm: burst-communication compilation for distributed "
                    "quantum programs (MICRO 2022 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile an OpenQASM 2.0 file for a distributed machine")
    _add_machine_arguments(compile_parser)
    compile_parser.add_argument("--fidelity", action="store_true",
                                help="also print an estimated program fidelity")
    _add_cache_arguments(compile_parser)
    _add_report_arguments(compile_parser)

    compare_parser = subparsers.add_parser(
        "compare", help="run every compiler on the same program")
    _add_machine_arguments(compare_parser, compiler=False)
    compare_parser.add_argument("--fidelity", action="store_true",
                                help="also report an estimated fidelity "
                                     "column per compiler")
    compare_parser.add_argument("--trials", type=int, default=0, metavar="N",
                                help="also run N Monte-Carlo trials per "
                                     "compiler and report the simulated "
                                     "latency distribution (default 0 = "
                                     "analytical only)")
    _add_sampling_arguments(compare_parser)
    _add_cache_arguments(compare_parser)
    _add_report_arguments(compare_parser)

    simulate_parser = subparsers.add_parser(
        "simulate", help="execute a compiled program with the discrete-event "
                         "simulator (deterministic check + optional "
                         "Monte-Carlo EPR study)")
    _add_machine_arguments(simulate_parser)
    _add_sampling_arguments(simulate_parser)
    simulate_parser.add_argument("--retry-latency", type=float, default=None,
                                 help="latency of one failed EPR attempt "
                                      "(default: the link's EPR latency)")
    simulate_parser.add_argument("--trials", type=int, default=1,
                                 help="Monte-Carlo trials (default 1)")
    simulate_parser.add_argument("--link-capacity", type=int, default=None,
                                 help="concurrent EPR generations per link, "
                                      "on every link the link model leaves "
                                      "unbounded (default: unlimited); "
                                      "mutually exclusive with --link-spec "
                                      "— prefer per-link capacities there")
    simulate_parser.add_argument("--timeline", action="store_true",
                                 help="render the executed schedule as an "
                                      "ASCII per-node timeline")
    simulate_parser.add_argument("--ideal-links", action="store_true",
                                 help="run the Monte-Carlo study with ideal "
                                      "links too: ignore link capacities and "
                                      "per-link success probabilities "
                                      "(per-link latencies are kept), the "
                                      "analytical scheduler's idealisation")
    simulate_parser.add_argument("--trace", type=int, default=None,
                                 metavar="N",
                                 help="print the first N simulation events")
    simulate_parser.add_argument("--trace-out", type=Path, default=None,
                                 metavar="PATH",
                                 help="write the shown run's event trace as "
                                      "JSON Lines (one event object per "
                                      "line) to PATH")
    _add_cache_arguments(simulate_parser)
    _add_report_arguments(simulate_parser)

    profile_parser = subparsers.add_parser(
        "profile", help="profile the compiler (and optionally the simulator) "
                        "on a program: timed repeats plus cProfile hotspots")
    _add_machine_arguments(profile_parser)
    profile_parser.add_argument("--repeat", type=int, default=3,
                                help="timed compile repetitions (default 3; "
                                     "the median is reported)")
    profile_parser.add_argument("--top", type=int, default=15,
                                help="number of cProfile hotspots to print "
                                     "(default 15)")
    profile_parser.add_argument("--simulate-trials", type=int, default=0,
                                metavar="N",
                                help="also profile N Monte-Carlo simulation "
                                     "trials (default 0 = compile only)")
    _add_sampling_arguments(profile_parser, p_epr=0.5)
    profile_parser.add_argument("--json", type=Path, default=None,
                                metavar="PATH",
                                help="write machine-readable timings and "
                                     "hotspots to PATH (e.g. "
                                     "BENCH_compiler.json)")

    trace_parser = subparsers.add_parser(
        "trace", help="compile + simulate a program and export a Chrome-"
                      "trace-format .trace.json (chrome://tracing, Perfetto) "
                      "of compile stages, simulated ops and link activity")
    _add_machine_arguments(trace_parser)
    trace_parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                              help="output file (default: <qasm stem>"
                                   ".trace.json next to the input)")
    _add_sampling_arguments(trace_parser, workers=False)
    trace_parser.add_argument("--no-sim", action="store_true",
                              help="export compile spans only, skip the "
                                   "simulated execution")

    verify_parser = subparsers.add_parser(
        "verify", help="statically verify a compiled program — dependency "
                       "DAG, mapping/migration legality, EPR routes, "
                       "schedule causality and resource booking — without "
                       "executing it; optionally sanitize a simulated run "
                       "or a Chrome-trace file")
    _add_machine_arguments(verify_parser, qasm="optional")
    verify_parser.add_argument("--simulate", action="store_true",
                               help="also run one deterministic simulation "
                                    "and sanitize its op records and trace "
                                    "(double-booked comm qubits, link "
                                    "windows beyond capacity, causality)")
    verify_parser.add_argument("--trace", type=Path, default=None,
                               metavar="PATH",
                               help="validate a Chrome-trace JSON file "
                                    "(a traceEvents object or a bare event "
                                    "list) instead of, or in addition to, "
                                    "a compiled program")
    verify_parser.add_argument("--json", type=Path, default=None,
                               metavar="PATH",
                               help="write the diagnostics report as JSON "
                                    "to PATH")
    verify_parser.add_argument("--strict", action="store_true",
                               help="treat warning diagnostics as fatal")
    verify_parser.add_argument("--list-checks", action="store_true",
                               help="list the registered check passes and "
                                    "exit")
    _add_cache_arguments(verify_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, clear or pre-warm the persistent compile "
                      "cache (see --cache-dir / REPRO_CACHE_DIR)")
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command",
                                                   required=True)
    _add_cache_dir_argument(cache_subparsers.add_parser(
        "stats", help="print entry count, disk usage and cumulative "
                      "hit/miss/store/corruption counters"))
    _add_cache_dir_argument(cache_subparsers.add_parser(
        "clear", help="delete every cached artifact in the directory"))
    cache_warm_parser = cache_subparsers.add_parser(
        "warm", help="pre-compile benchmark circuits into the cache so "
                     "later compiles are served warm")
    _add_cache_dir_argument(cache_warm_parser)
    cache_warm_parser.add_argument("--families", default=None,
                                   metavar="A,B,...",
                                   help="comma-separated benchmark families "
                                        "to warm (default: all of "
                                        f"{', '.join(sorted(BENCHMARK_FAMILIES))})")
    cache_warm_parser.add_argument("--qubits", type=int, default=12,
                                   help="qubits per benchmark circuit "
                                        "(default 12)")
    _add_machine_arguments(cache_warm_parser, qasm=None, nodes=4,
                           compiler=False)

    generate_parser = subparsers.add_parser(
        "generate", help="write a benchmark circuit as OpenQASM 2.0")
    generate_parser.add_argument("family", choices=sorted(f.lower() for f in BENCHMARK_FAMILIES))
    generate_parser.add_argument("--qubits", type=int, required=True)
    generate_parser.add_argument("--output", type=Path, default=None,
                                 help="output file (default: stdout)")
    return parser


def _load_circuit(path: Path) -> Circuit:
    if not path.exists():
        raise SystemExit(f"error: no such file: {path}")
    return from_qasm(path.read_text())


def _bound_links(model: LinkModel, capacity: int) -> LinkModel:
    """``model`` with ``capacity`` on every link spec that has none."""
    def bound(spec):
        if spec.capacity is not None:
            return spec
        return spec.merged(capacity=capacity)
    return LinkModel(bound(model.default),
                     {link: bound(spec)
                      for link, spec in model.overrides.items()})


def _network_from_args(circuit: Circuit, args):
    """The machine the size, topology and link flags describe."""
    topology = args.topology
    grid_columns = args.grid_columns
    if grid_columns is not None and topology != "grid":
        raise SystemExit("error: --grid-columns only applies to "
                         "--topology grid")
    link_spec = args.link_spec
    link_profile = args.link_profile
    if link_spec is not None and link_profile is not None:
        raise SystemExit("error: --link-spec and --link-profile are "
                         "mutually exclusive")
    link_capacity = getattr(args, "link_capacity", None)
    if link_spec is not None and link_capacity is not None:
        raise SystemExit(
            "error: --link-spec and --link-capacity are mutually exclusive; "
            "set per-link (or \"default\") capacities in the link-spec file "
            "instead of the global flag")
    link_model = None
    if link_spec is not None:
        if not link_spec.exists():
            raise SystemExit(f"error: no such link-spec file: {link_spec}")
        try:
            link_model = load_link_spec(link_spec, DEFAULT_LATENCY.t_epr)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    try:
        if link_capacity is not None:
            # --link-capacity N is part of the link model: every link the
            # profile (or the uniform model) leaves unbounded gets N.
            if link_profile is None:
                link_model = LinkModel.uniform_model(DEFAULT_LATENCY.t_epr)
            else:
                link_model = link_model_from_profile(
                    link_profile,
                    topology_graph(topology, args.nodes,
                                   grid_columns=grid_columns),
                    DEFAULT_LATENCY.t_epr)
                link_profile = None
            link_model = _bound_links(link_model, link_capacity)
        per_node = (args.qubits_per_node
                    or -(-circuit.num_qubits // args.nodes))
        network = uniform_network(args.nodes, per_node,
                                  comm_qubits_per_node=args.comm_qubits)
        if (topology != "all-to-all" or args.swap_overhead != 1.0
                or grid_columns is not None or link_model is not None
                or link_profile is not None):
            apply_topology(network, topology,
                           swap_overhead=args.swap_overhead,
                           grid_columns=grid_columns, link_model=link_model,
                           link_profile=link_profile)
        return network
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _autocomm_config(args) -> Optional[AutoCommConfig]:
    """The AutoComm pipeline config the remap flags ask for (None = default)."""
    remap, phase_blocks = args.remap, args.phase_blocks
    overlap, phase_sizing = args.overlap, args.phase_sizing
    if phase_blocks < 1:
        raise SystemExit("error: --phase-blocks must be >= 1, "
                         f"got {phase_blocks}")
    if remap == "never":
        if overlap:
            raise SystemExit("error: --overlap requires --remap bursts")
        if phase_sizing != "fixed":
            raise SystemExit("error: --phase-sizing auto requires "
                             "--remap bursts")
        return None
    return AutoCommConfig(remap=remap, phase_blocks=phase_blocks,
                          overlap=overlap, phase_sizing=phase_sizing)


def _compiler_for_args(args, cache):
    """The compile callable the compiler/remap flags select, using ``cache``."""
    config = _autocomm_config(args)
    name = args.compiler
    if config is not None and name != "autocomm":
        raise SystemExit("error: --remap only applies to the autocomm "
                         f"compiler, not {name!r}")
    if name != "autocomm":
        return COMPILERS[name]
    return functools.partial(compile_autocomm, config=config, cache=cache)


def _compile_qasm(args):
    """Load ``args.qasm``, build the machine the flags describe and compile
    the program on it; returns ``(network, program)``."""
    circuit = _load_circuit(args.qasm)
    network = _network_from_args(circuit, args)
    compiler = _compiler_for_args(args, _cache_for_args(args))
    return network, compiler(circuit, network)


def _verify_programs(programs) -> int:
    """Print the static verifier's report on each program; 1 if any has
    error diagnostics."""
    failed = False
    for program in programs:
        verification = verify_program(program)
        print(verification.render())
        failed = failed or not verification.ok
    return 1 if failed else 0


def _report_rows(program) -> List[dict]:
    metrics = program.metrics
    rows = [
        {"metric": "compiler", "value": program.compiler},
        {"metric": "qubits", "value": program.circuit.num_qubits},
        {"metric": "gates (CX basis)", "value": len(program.circuit)},
        {"metric": "remote gates", "value": metrics.num_remote_gates},
        {"metric": "burst blocks", "value": metrics.num_blocks},
        {"metric": "communications", "value": metrics.total_comm},
        {"metric": "  TP-Comm", "value": metrics.tp_comm},
        {"metric": "  Cat-Comm", "value": metrics.cat_comm},
        {"metric": "peak REM CX / comm", "value": metrics.peak_rem_cx},
        {"metric": "latency [CX units]", "value": round(metrics.latency, 1)},
    ]
    network = program.network
    if network.topology_kind != "all-to-all" or network.heterogeneous_links:
        rows.insert(2, {"metric": "topology", "value": network.topology_kind})
        rows.append({"metric": "physical EPR pairs (swaps incl.)",
                     "value": metrics.total_epr_pairs})
    if network.heterogeneous_links:
        rows.insert(3, {"metric": "link model",
                        "value": "heterogeneous "
                                 f"({network.link_model.describe()})"})
        if metrics.total_epr_latency is not None:
            rows.append({"metric": "EPR latency volume [CX units]",
                         "value": round(metrics.total_epr_latency, 1)})
    if program.remap != "never":
        rows.insert(1, {"metric": "remap", "value": program.remap})
        rows.append({"metric": "phases", "value": metrics.num_phases})
        rows.append({"metric": "migration moves",
                     "value": metrics.migration_moves})
        rows.append({"metric": "migration latency [CX units]",
                     "value": round(metrics.migration_latency, 1)})
        rows.append({"metric": "boundary bubble [CX units]",
                     "value": round(metrics.boundary_bubble, 1)})
        if (metrics.total_epr_latency is not None
                and not network.heterogeneous_links):
            rows.append({"metric": "EPR latency volume [CX units]",
                         "value": round(metrics.total_epr_latency, 1)})
    return rows


def _cmd_compile(args) -> int:
    _, program = _compile_qasm(args)
    rows = _report_rows(program)
    if args.fidelity:
        rows.append({"metric": "estimated fidelity",
                     "value": round(estimate_fidelity(program, DEFAULT_ERROR_MODEL), 4)})
    print(render_table(rows, columns=["metric", "value"]))
    if args.report is not None:
        report = report_for_program(program, kind="compile",
                                    meta={"qasm": str(args.qasm)})
        report.save(args.report)
        print(f"wrote {args.report}")
    return _verify_programs([program]) if args.verify else 0


def _cmd_compare(args) -> int:
    if args.trials < 0:
        raise SystemExit(f"error: --trials must be >= 0, got {args.trials}")
    circuit = _load_circuit(args.qasm)
    network = _network_from_args(circuit, args)
    remap_config = _autocomm_config(args)
    cache = _cache_for_args(args)
    autocomm = compile_autocomm(circuit, network, cache=cache)
    programs = [(name,
                 autocomm if name == "autocomm"
                 else compiler(circuit, network, mapping=autocomm.mapping))
                for name, compiler in sorted(COMPILERS.items())]
    if remap_config is not None:
        # The dynamically remapped pipeline as an extra contender, seeded
        # from the same initial mapping as every static compiler.  Its
        # row is named by its compiler label so --overlap and
        # --phase-sizing auto variants are distinguishable in the table.
        remapped = compile_autocomm(circuit, network,
                                    mapping=autocomm.mapping,
                                    config=remap_config, cache=cache)
        programs.append((remapped.compiler, remapped))
    rows = []
    for name, program in programs:
        row = {
            "compiler": name,
            "communications": program.metrics.total_comm,
            "tp_comm": program.metrics.tp_comm,
            "peak_rem_cx": program.metrics.peak_rem_cx,
            "latency": round(program.metrics.latency, 1),
        }
        if remap_config is not None:
            epr_latency = program.metrics.total_epr_latency
            row["epr_latency"] = (round(epr_latency, 1)
                                  if epr_latency is not None else "-")
            row["migrations"] = program.metrics.migration_moves
            row["bubble"] = round(program.metrics.boundary_bubble, 1)
        if args.fidelity:
            row["fidelity"] = round(
                estimate_fidelity(program, DEFAULT_ERROR_MODEL), 4)
        if args.trials > 0:
            # Simulated latency distribution next to the analytical number,
            # under the same seeds for every compiler (per-trial streams
            # derive from the master seed, so --workers never changes them).
            config = SimulationConfig(p_epr=args.p_epr, seed=args.seed,
                                      trials=args.trials,
                                      workers=args.workers,
                                      record_trace=False)
            monte_carlo = run_monte_carlo(program, config)
            summary = monte_carlo.summary()
            row["sim_mean"] = round(summary["mean"], 1)
            row["sim_p95"] = round(summary["p95"], 1)
        rows.append(row)
    columns = ["compiler", "communications", "tp_comm", "peak_rem_cx",
               "latency"]
    if remap_config is not None:
        columns += ["epr_latency", "migrations", "bubble"]
    if args.fidelity:
        columns.append("fidelity")
    if args.trials > 0:
        columns += ["sim_mean", "sim_p95"]
    print(render_table(rows, columns=columns))
    if args.report is not None:
        entries = []
        for name, program in programs:
            spans = program.spans
            entries.append({"compiler": name,
                            "metrics": program.metrics.as_dict(),
                            "spans": (spans.as_dict()
                                      if spans is not None else None)})
        report = RunReport(kind="compare",
                           meta={"qasm": str(args.qasm),
                                 "nodes": network.num_nodes,
                                 "topology": network.topology_kind},
                           programs=entries)
        report.save(args.report)
        print(f"wrote {args.report}")
    if args.verify:
        return _verify_programs(program for _, program in programs)
    return 0


def _cmd_simulate(args) -> int:
    if args.trials < 1:
        raise SystemExit(f"error: --trials must be >= 1, got {args.trials}")
    if args.retry_latency is not None and args.retry_latency <= 0:
        raise SystemExit("error: --retry-latency must be positive")
    network, program = _compile_qasm(args)

    # Deterministic replay first: the simulated execution must reproduce the
    # analytical schedule latency exactly.  Ideal links match the analytical
    # model's assumptions (capacities and per-link loss ignored, per-link
    # latencies kept), so the check stays meaningful under any link spec.
    deterministic = simulate_program(program, SimulationConfig(ideal_links=True))
    report = validate_schedule(program, result=deterministic)
    monte_carlo = None
    # A capacity-limited or lossy link is a study of its own even at
    # p_epr = 1.0: the validation replay above stays unconstrained (it
    # checks the analytical model), while the study branch reflects every
    # flag the user passed plus the link model's own capacities/p_epr.
    link_model = network.link_model
    constrained_links = link_model is not None and (
        link_model.has_capacities or not link_model.deterministic)
    if args.p_epr < 1.0 or args.trials > 1 or constrained_links:
        config = SimulationConfig(p_epr=args.p_epr,
                                  retry_latency=args.retry_latency,
                                  seed=args.seed, trials=args.trials,
                                  ideal_links=args.ideal_links,
                                  workers=args.workers)
        monte_carlo = run_monte_carlo(program, config)

    row = simulation_row(report, monte_carlo)
    if network.topology_kind != "all-to-all" or network.heterogeneous_links:
        row["topology"] = network.topology_kind
        row["total_comm"] = program.metrics.total_comm
        # Compiler-side per-block accounting vs pairs the replayed
        # execution actually generated (fusion savings included).
        row["total_epr_pairs"] = program.metrics.total_epr_pairs
        row["sim_epr_pairs"] = deterministic.total_epr_pairs
    print(render_table([row]))
    if not report.matches:
        print(f"warning: {report.describe()}", file=sys.stderr)

    shown = (monte_carlo.sample_trial if monte_carlo is not None
             and monte_carlo.sample_trial is not None else deterministic)
    if args.timeline:
        print()
        print(simulation_timeline(shown, network.num_nodes))
    if args.trace is not None:
        print()
        print(shown.trace.render(limit=args.trace))
    if args.trace_out is not None:
        count = shown.trace.write_jsonl(args.trace_out)
        print(f"wrote {args.trace_out} ({count} events)")
    if args.report is not None:
        simulation = {
            "validation": {
                "matches": report.matches,
                "analytical_latency": report.analytical_latency,
                "simulated_latency": report.simulated_latency,
                "max_op_end_delta": report.max_op_end_delta,
            },
        }
        if monte_carlo is not None:
            simulation["monte_carlo"] = monte_carlo.summary()
            if monte_carlo.metrics is not None:
                simulation["sim_metrics"] = monte_carlo.metrics.as_dict()
        elif deterministic.metrics is not None:
            simulation["sim_metrics"] = deterministic.metrics.as_dict()
        run_report = report_for_program(program, kind="simulate",
                                        meta={"qasm": str(args.qasm),
                                              "p_epr": args.p_epr,
                                              "trials": args.trials,
                                              "seed": args.seed})
        run_report.simulation = simulation
        run_report.save(args.report)
        print(f"wrote {args.report}")
    if args.verify:
        # Static checks over the compiled artifact plus a post-hoc sanitize
        # of the deterministic replay's op records and trace.
        verification = verify_program(program)
        verification.merge(sanitize_simulation(
            program, deterministic, SimulationConfig(ideal_links=True)))
        print(verification.render())
        if not verification.ok:
            return 1
    return 0 if report.matches else 1


def _cmd_verify(args) -> int:
    import json

    from .verify import registered_passes

    if args.list_checks:
        for check_id, cls in sorted(registered_passes().items()):
            print(f"{check_id:20s} [{cls.scope:7s}] {cls.description}")
        return 0
    if args.qasm is None and args.trace is None:
        raise SystemExit("error: verify needs a qasm file, --trace FILE "
                         "or --list-checks")

    trace_violations: List[str] = []
    if args.trace is not None:
        if not args.trace.exists():
            raise SystemExit(f"error: no such trace file: {args.trace}")
        try:
            payload = json.loads(args.trace.read_text())
        except ValueError as exc:
            raise SystemExit(f"error: {args.trace} is not valid JSON: {exc}")
        events = (payload.get("traceEvents")
                  if isinstance(payload, dict) else payload)
        if not isinstance(events, list):
            raise SystemExit(f"error: {args.trace} holds no trace-event "
                             "list (expected a traceEvents object or a "
                             "bare JSON array)")
        trace_violations = validate_trace_events(events)
        print(f"trace {args.trace}: {len(events)} events, "
              f"{len(trace_violations)} violations")
        for violation in trace_violations:
            print(f"  error: chrome-trace: {violation}")

    report = None
    if args.qasm is not None:
        if args.nodes is None:
            raise SystemExit("error: --nodes is required when verifying a "
                             "qasm input")
        _, program = _compile_qasm(args)
        report = verify_program(program)
        if args.simulate:
            config = SimulationConfig(ideal_links=True)
            result = simulate_program(program, config)
            report.merge(sanitize_simulation(program, result, config))
        print(report.render())

    if args.json is not None:
        payload = {"command": "verify", "schema": 1}
        if report is not None:
            payload["report"] = report.as_dict()
        if args.trace is not None:
            payload["trace"] = {"file": str(args.trace),
                                "violations": trace_violations}
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    failed = bool(trace_violations)
    if report is not None:
        failed = (failed or not report.ok
                  or (args.strict and bool(report.warnings)))
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    _, program = _compile_qasm(args)

    events = []
    spans = program.spans
    if spans is not None:
        events.extend(span_trace_events(spans, pid=PID_COMPILE))
    if not args.no_sim:
        result = simulate_program(program,
                                  SimulationConfig(p_epr=args.p_epr,
                                                   seed=args.seed))
        events.extend(simulation_trace_events(result))

    out = args.out
    if out is None:
        out = args.qasm.with_name(args.qasm.stem + ".trace.json")
    write_chrome_trace(out, events)
    print(f"wrote {out} ({len(events)} events) — open in chrome://tracing "
          "or https://ui.perfetto.dev")
    violations = validate_trace_events(events)
    if violations:
        for violation in violations:
            print(f"warning: {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    import cProfile
    import json
    import pstats
    import statistics
    import time

    if args.repeat < 1:
        raise SystemExit(f"error: --repeat must be >= 1, got {args.repeat}")
    from .ir.commutation import clear_commutation_cache, commutation_cache_stats

    circuit = _load_circuit(args.qasm)
    network = _network_from_args(circuit, args)
    # Always compile cold: a cache hit would time a disk load, not the
    # compiler.
    compiler = _compiler_for_args(args, cache=False)

    compile_times = []
    for _ in range(args.repeat):
        clear_commutation_cache()
        begin = time.perf_counter()
        program = compiler(circuit, network)
        compile_times.append(time.perf_counter() - begin)
    cache_stats = commutation_cache_stats()

    simulate_times = []
    sim_config = None
    if args.simulate_trials > 0:
        sim_config = SimulationConfig(p_epr=args.p_epr, seed=args.seed,
                                      trials=args.simulate_trials,
                                      record_trace=False,
                                      workers=args.workers)
        for _ in range(args.repeat):
            begin = time.perf_counter()
            run_monte_carlo(program, sim_config)
            simulate_times.append(time.perf_counter() - begin)

    # One profiled pass over the same workload for the hotspot table.
    clear_commutation_cache()
    profiler = cProfile.Profile()
    profiler.enable()
    program = compiler(circuit, network)
    if sim_config is not None:
        run_monte_carlo(program, sim_config)
    profiler.disable()

    stats = pstats.Stats(profiler)
    hotspots = []
    for func, (cc, ncalls, tottime, cumtime, _) in sorted(
            stats.stats.items(), key=lambda kv: -kv[1][3]):
        filename, line, name = func
        if "cProfile" in name or filename.startswith("<"):
            continue
        hotspots.append({
            "function": f"{Path(filename).name}:{line}({name})",
            "ncalls": ncalls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
        if len(hotspots) >= args.top:
            break

    rows = [{"metric": "compiler", "value": args.compiler},
            {"metric": "gates (CX basis)", "value": len(program.circuit)},
            {"metric": "compile median [ms]",
             "value": round(statistics.median(compile_times) * 1e3, 2)},
            {"metric": "compile runs [ms]",
             "value": " ".join(f"{t * 1e3:.2f}" for t in compile_times)},
            {"metric": "commutation cache hits/misses",
             "value": f"{cache_stats['hits']}/{cache_stats['misses']}"}]
    spans = program.spans
    if spans is not None:
        # Top-level pass timings from the profiled compile's span tree; the
        # full nested tree follows the hotspot table.
        for child in spans.children:
            rows.append({"metric": f"  stage {child.name} [ms]",
                         "value": round(child.duration * 1e3, 2)})
    if simulate_times:
        rows.append({"metric": f"simulate {args.simulate_trials} trials "
                               "median [ms]",
                     "value": round(statistics.median(simulate_times) * 1e3, 2)})
    print(render_table(rows, columns=["metric", "value"]))
    if spans is not None:
        print()
        print("compile stage tree (profiled run):")
        print(spans.render())
    print()
    print(f"top {len(hotspots)} hotspots by cumulative time:")
    print(render_table(hotspots,
                       columns=["function", "ncalls", "tottime_s", "cumtime_s"]))

    if args.json is not None:
        payload = {
            "command": "profile",
            "schema": 1,
            "qasm": str(args.qasm),
            "compiler": args.compiler,
            "nodes": args.nodes,
            "topology": args.topology,
            "remap": args.remap,
            "overlap": args.overlap,
            "boundary_bubble": program.metrics.boundary_bubble,
            "gates": len(program.circuit),
            "compile_s": {"median": statistics.median(compile_times),
                          "runs": compile_times},
            "commutation_cache": cache_stats,
            "hotspots": hotspots,
        }
        if spans is not None:
            payload["stages"] = spans.as_dict()
        if simulate_times:
            payload["simulate_s"] = {"median": statistics.median(simulate_times),
                                     "runs": simulate_times,
                                     "trials": args.simulate_trials,
                                     "p_epr": args.p_epr}
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


def _cache_from_args(args):
    """The cache the ``cache`` subcommand addresses; SystemExit when none."""
    from .persist import CACHE_DIR_ENV, resolve_cache
    cache = resolve_cache(args.cache_dir)
    if cache is None:
        raise SystemExit(f"error: give --cache-dir or set {CACHE_DIR_ENV}")
    return cache


def _cmd_cache(args) -> int:
    if args.cache_command == "stats":
        cache = _cache_from_args(args)
        stats = cache.stats()
        rows = [{"metric": "directory", "value": stats["directory"]},
                {"metric": "entries", "value": stats["entries"]},
                {"metric": "total bytes", "value": stats["total_bytes"]}]
        for name, value in sorted(stats["counters"].items()):
            rows.append({"metric": f"{name} (cumulative)", "value": value})
        print(render_table(rows, columns=["metric", "value"]))
        return 0
    if args.cache_command == "clear":
        cache = _cache_from_args(args)
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0

    # warm: compile benchmark circuits into the cache.
    if args.families is None:
        families = sorted(BENCHMARK_FAMILIES)
    else:
        families = [f.strip().upper() for f in args.families.split(",")
                    if f.strip()]
        unknown = sorted(set(families) - set(BENCHMARK_FAMILIES))
        if unknown:
            raise SystemExit("error: unknown benchmark families "
                             f"{', '.join(unknown)}; choose from "
                             f"{', '.join(sorted(BENCHMARK_FAMILIES))}")
    config = _autocomm_config(args)
    # Build every circuit first, so a width too small for one family stops
    # the command before anything is compiled or cached.
    circuits = [_build_benchmark(family, args.qubits, args.nodes,
                                 comm_qubits_per_node=args.comm_qubits)[0]
                for family in families]
    cache = _cache_from_args(args)
    rows = []
    for circuit in circuits:
        network = _network_from_args(circuit, args)
        already = cache.counters()["hits"]
        program = compile_autocomm(circuit, network, config=config,
                                   cache=cache)
        rows.append({"circuit": program.circuit.name,
                     "gates": len(program.circuit),
                     "latency": round(program.metrics.latency, 1),
                     "source": ("warm" if cache.counters()["hits"] > already
                                else "cold")})
    print(render_table(rows,
                       columns=["circuit", "gates", "latency", "source"]))
    counters = cache.counters()
    print(f"cache {cache.directory}: {counters['hits']} hits, "
          f"{counters['stores']} stores this run")
    return 0


def _build_benchmark(family: str, qubits: int, *args, **kwargs):
    """:func:`build_benchmark`, stopping with one error line when
    ``qubits`` is below the family's minimum width."""
    try:
        return build_benchmark(family, qubits, *args, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"error: --qubits {qubits} is too few for "
                         f"{family}: {exc}") from None


def _cmd_generate(args) -> int:
    circuit, _ = _build_benchmark(args.family.upper(), args.qubits,
                                  num_nodes=1)
    text = to_qasm(circuit)
    if args.output is None:
        print(text, end="")
    else:
        args.output.write_text(text)
        print(f"wrote {args.output} ({circuit.num_qubits} qubits, "
              f"{len(circuit)} gates)")
    return 0


def _check_shared_flags(args) -> None:
    """Range-check the flags several commands share, for every command that
    takes them, before any command runs."""
    flags = vars(args)
    if "p_epr" in flags and not 0.0 < args.p_epr <= 1.0:
        raise SystemExit(f"error: --p-epr must be in (0, 1], got {args.p_epr}")
    if "workers" in flags and args.workers < 1:
        raise SystemExit(f"error: --workers must be >= 1, got {args.workers}")
    for flag, least in (("nodes", 1), ("qubits_per_node", 1), ("qubits", 1),
                        ("top", 1)):
        value = flags.get(flag)
        if value is not None and value < least:
            raise SystemExit(f"error: --{flag.replace('_', '-')} must be "
                             f">= {least}, got {value}")
    # verify's --trace names a file; simulate's counts events.
    if isinstance(flags.get("trace"), int) and args.trace < 0:
        raise SystemExit(f"error: --trace must be >= 0, got {args.trace}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _check_shared_flags(args)
    handlers = {"compile": _cmd_compile, "compare": _cmd_compare,
                "simulate": _cmd_simulate, "generate": _cmd_generate,
                "profile": _cmd_profile, "trace": _cmd_trace,
                "verify": _cmd_verify, "cache": _cmd_cache}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
