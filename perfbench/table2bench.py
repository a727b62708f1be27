"""Table 2 benchmark: cold compiles and Monte-Carlo trials, layer by layer.

One call runs one workload against the public ``repro`` API in a closed
loop: a single client in this process issues one compile (or one trial)
after another, each waiting for the previous one, with ``workers=1`` and no
pool or threads.  The report lists every metric with its unit and sample
count, one row per program, and the run metadata; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``)::

    python3 perfbench/run.py --workload qft-aggregate --seed 1 --seconds 20 --trace 0

Workloads (programs of ``paper_configurations()``, see ``BENCHMARK.json``):

* ``qft-aggregate`` -- QFT-100@10, all-to-all, static.  Aggregation heavy.
* ``uccsd-schedule`` -- UCCSD-8@4.  List-scheduling heavy.
* ``remap-line`` -- MCTR/RCA/BV/QAOA at 100@10 and 200@20 on a line, each
  compiled static and with ``remap="bursts", overlap=True``.
* ``mc-table2`` -- ``simulate_program`` trials at ``p_epr=0.5`` on
  QFT-100@10, QAOA-100@10, RCA-200@20 and UCCSD-8@4, taking turns.  The
  programs are compiled during set-up.

The seed orders each compile pass and derives every trial seed; the Table 2
circuits themselves are fixed, so their compiled outputs can be pinned.
Every reported time is scaled to the reference host's speed by a probe of
fixed work around each operation (see :class:`HostClock`); raw medians are
printed next to the scaled ones.

``--trace 1`` runs the same workload but times the benchmark's own calls into
each layer's public functions (decompose, OEE, aggregation, assignment, plan
building, list scheduling, simulation, checks) and reports the per-layer
metrics; the recorded spans are written to ``perfbench/out/`` at the end.

``--scale smoke`` swaps in the ``scaled_configurations("small")`` sizes, so a
run takes seconds.  ``--regen-expected`` recompiles every program of every
workload at both scales and rewrites ``perfbench/expected_outputs.json``::

    python3 perfbench/run.py --regen-expected
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected_outputs.json"
OUT_DIR = HERE / "out"

# The benchmark measures the source tree it ships with, never an installed
# copy: without ``src/repro`` next to it, importing this module fails.
if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"no repro package under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import repro  # noqa: E402
from repro import (AutoCommConfig, SimulationConfig, compile_autocomm,  # noqa: E402
                   simulate_program, validate_schedule)
from repro.circuits.suite import (BenchmarkSpec, paper_configurations,  # noqa: E402
                                  scaled_configurations)
from repro.core import (aggregate_communications,  # noqa: E402
                        assign_communications, plan_schedule,
                        schedule_communications)
from repro.hardware.topology import apply_topology  # noqa: E402
from repro.ir.commutation import commutation_cache_stats  # noqa: E402
from repro.ir.decompose import decompose_to_cx  # noqa: E402
from repro.partition import oee_partition  # noqa: E402
from repro.persist import dumps_program  # noqa: E402
from repro.verify import verify_program  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")

__all__ = ["Program", "WORKLOADS", "workload_programs", "run_workload",
           "regenerate_expected", "END_TO_END", "PER_LAYER"]

#: Configuration of every remapped compile (``remap_vs_static`` compares it
#: with the static compile of the same program on the same network).
REMAP_CONFIG = AutoCommConfig(remap="bursts", overlap=True)

#: Stochastic EPR success probability of the Monte-Carlo trials.
MC_P_EPR = 0.5

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: The deterministic replay ``validate_schedule`` compares against.
REPLAY_CONFIG = SimulationConfig(p_epr=1.0, ideal_links=True,
                                 record_trace=False)

#: Name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END: Dict[str, str] = {
    "compile_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "success_frac": "ratio",
    "latency_cx": "cx",
    "total_comm": "count",
    "epr_pairs": "count",
    "remap_vs_static": "ratio",
    "sim_latency_mean": "cx",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Name -> unit of every per-layer metric (printed with ``--trace 1``).
#: Times are medians over passes of the per-pass sum over programs; counts
#: are per pass.
PER_LAYER: Dict[str, str] = {
    "ir.decompose_ms": "ms",
    "ir.gates": "count",
    "partition.oee_ms": "ms",
    "partition.remote_gates": "count",
    "aggregation.ms": "ms",
    "aggregation.blocks": "count",
    "aggregation.commute_hits": "count",
    "aggregation.commute_misses": "count",
    "aggregation.commute_hit_ratio": "ratio",
    "assignment.ms": "ms",
    "assignment.tp_blocks": "count",
    "assignment.cat_blocks": "count",
    "scheduling.plan_burst_ms": "ms",
    "scheduling.plan_plain_ms": "ms",
    "scheduling.list_ms": "ms",
    "scheduling.items": "count",
    "scheduling.burst_won": "count",
    "scheduling.burst_won_frac": "ratio",
    "pipeline.remap_ms": "ms",
    "pipeline.phases": "count",
    "pipeline.migrations": "count",
    "pipeline.segment_ms": "ms",
    "pipeline.oee_repartition_ms": "ms",
    "pipeline.plan_phased_ms": "ms",
    "sim.trial_ms": "ms",
    "sim.trial_ms_p90": "ms",
    "sim.epr_attempts": "count",
    "sim.epr_pairs": "count",
    "sim.replay_ms": "ms",
    "verify.ms": "ms",
    "verify.errors": "count",
    "persist.dumps_ms": "ms",
    "persist.bytes": "count",
    "trace.compile_ms": "ms",
    "trace.layers_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

#: The static-pipeline layers whose times add up to one compile.
STATIC_LAYERS = ("ir.decompose_ms", "partition.oee_ms", "aggregation.ms",
                 "assignment.ms", "scheduling.plan_burst_ms",
                 "scheduling.plan_plain_ms", "scheduling.list_ms")

#: Pipeline span names summed into each per-program row.
ROW_SPANS = ("decompose", "oee-partition", "aggregation", "assignment",
             "scheduling")


# ---------------------------------------------------------------------------
# Programs and workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """One compile input: a Table 2 point, a topology and a remap mode."""

    family: str
    qubits: int
    nodes: int
    topology: str = "all-to-all"
    remap: bool = False

    @property
    def id(self) -> str:
        mode = "remap" if self.remap else "static"
        return (f"{self.family}-{self.qubits}-{self.nodes}/"
                f"{self.topology}/{mode}")

    @property
    def config(self) -> Optional[AutoCommConfig]:
        return REMAP_CONFIG if self.remap else None

    def build(self):
        """A fresh circuit and network (never shared between compiles)."""
        circuit, network = BenchmarkSpec(self.family, self.qubits,
                                         self.nodes).build()
        if self.topology != "all-to-all":
            network = apply_topology(network, self.topology)
        return circuit, network


#: Workload name -> (kind, Table 2 programs).  "compile" workloads time
#: compile passes over their programs; "mc" compiles during set-up and
#: times ``simulate_program`` trials.
WORKLOADS: Dict[str, Tuple[str, List[Program]]] = {
    "qft-aggregate": ("compile", [Program("QFT", 100, 10)]),
    # UCCSD-12@6 has the same profile but compiles for about 4 s, so a run
    # holds only four or five samples of it: too few to be steady.
    "uccsd-schedule": ("compile", [Program("UCCSD", 8, 4)]),
    "remap-line": ("compile", [
        Program(family, qubits, nodes, "line", remap)
        for family in ("MCTR", "RCA", "BV", "QAOA")
        for qubits, nodes in ((100, 10), (200, 20))
        for remap in (False, True)]),
    # QAOA-100@10 stands in for QAOA-200@20, whose trials still raise a
    # comm-qubit booking error ("no free slot") about once in 3000 at
    # p_epr=0.5.
    "mc-table2": ("mc", [Program("QFT", 100, 10), Program("QAOA", 100, 10),
                         Program("RCA", 200, 20), Program("UCCSD", 8, 4)]),
}

SCALES = ("table2", "smoke")


def workload_programs(workload: str, scale: str = "table2") -> List[Program]:
    """The workload's programs; ``smoke`` maps each Table 2 size to the
    ``scaled_configurations("small")`` size of the same rank in its family
    (programs without one are dropped)."""
    programs = WORKLOADS[workload][1]
    if scale == "table2":
        return list(programs)
    if scale != "smoke":
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")

    def sizes(specs) -> Dict[str, List[Tuple[int, int]]]:
        table: Dict[str, List[Tuple[int, int]]] = {}
        for spec in specs:
            table.setdefault(spec.family, []).append((spec.num_qubits,
                                                      spec.num_nodes))
        return table

    paper = sizes(paper_configurations())
    small = sizes(scaled_configurations("small"))
    scaled: List[Program] = []
    for program in programs:
        rank = paper[program.family].index((program.qubits, program.nodes))
        if rank < len(small[program.family]):
            qubits, nodes = small[program.family][rank]
            candidate = replace(program, qubits=qubits, nodes=nodes)
            if candidate not in scaled:
                scaled.append(candidate)
    return scaled


# ---------------------------------------------------------------------------
# Expected outputs
# ---------------------------------------------------------------------------

def expected_record(metrics, payload: bytes) -> Dict[str, object]:
    """Pinned outputs of one program: its paper metrics and the SHA-256 of
    ``dumps_program(program, spans=False)``."""
    return {"total_comm": metrics.total_comm, "latency": metrics.latency,
            "sha256": hashlib.sha256(payload).hexdigest()}


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def regenerate_expected() -> Dict[str, Dict[str, object]]:
    """Compile every program of every workload at both scales once."""
    records: Dict[str, Dict[str, object]] = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            for program in workload_programs(workload, scale):
                if program.id in records:
                    continue
                circuit, network = program.build()
                compiled = compile_autocomm(circuit, network,
                                            config=program.config,
                                            cache=False)
                records[program.id] = expected_record(
                    compiled.metrics, dumps_program(compiled, spans=False))
    payload = {"regenerate": "python3 perfbench/run.py --regen-expected",
               "programs": dict(sorted(records.items()))}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return records


# ---------------------------------------------------------------------------
# Tracing: spans around the benchmark's own calls
# ---------------------------------------------------------------------------

class SpanLog:
    """In-memory spans: name, start, end, parent index and operation id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, run: int) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "name": name, "run": run,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._origin, "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    @staticmethod
    def ms(record: Dict[str, object]) -> float:
        return (float(record["end"]) - float(record["start"])) * 1e3


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    """90th percentile, interpolated.

    With fewer than 100 samples this is the highest percentile that still
    has ten samples beyond it (the median below 20 samples), so a sparse
    tail is never reported as a p90.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    quantile = min(0.9, max(0.5, 1.0 - 10.0 / len(ordered)))
    position = quantile * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _geomean(values: List[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def _fresh_heap() -> None:
    """Collect garbage outside the timed region.

    Every operation then starts from the same collector state, so garbage
    left by one operation is not charged to the next and the collections
    inside an operation depend only on that operation's own allocations.
    """
    gc.collect()


def _freeze_setup() -> None:
    """Move set-up objects (modules, compiled programs) out of the
    collector's reach, so no collection in the timed loop rescans them."""
    gc.collect()
    gc.freeze()


#: Wall time of one :func:`_probe_work` on the reference host (2-core Intel
#: Xeon, Python 3.11.7, no other load).
PROBE_NOMINAL_S = 0.021


def _probe_work() -> int:
    """Fixed pure-Python work, allocation-heavy like the compiler.

    It shares no code with ``repro``, so no change to the program under test
    changes its cost; only the host's speed does.
    """
    table = {}
    for i in range(40000):
        table[(i, i ^ 0x5BD1)] = [i, str(i)]
    return len(sorted(table, key=lambda key: key[1]))


#: A timed sample: (wall time, index of the host probe taken just before).
Sample = Tuple[float, int]


class HostClock:
    """Scales wall times to the reference host's speed.

    The host's CPU availability swings by up to 2x in phases of seconds
    (other tenants), which moves every wall time of a run together.  A
    probe of fixed work runs before each operation (or each round of
    trials) and once at the end; a sample is scaled by
    ``PROBE_NOMINAL_S / mean(probe before, probe after)``, so it reads as
    the time the same work takes on the unloaded reference host.  Raw wall
    times are still reported next to the scaled ones.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def probe(self) -> int:
        """Time one probe; returns its index for the samples that follow."""
        gc.collect()
        start = time.perf_counter()
        _probe_work()
        self.probes.append(time.perf_counter() - start)
        return len(self.probes) - 1

    def scale(self, index: int) -> float:
        after = self.probes[min(index + 1, len(self.probes) - 1)]
        return PROBE_NOMINAL_S / ((self.probes[index] + after) / 2.0)

    def scaled(self, samples: List[Sample]) -> List[float]:
        return [value * self.scale(index) for value, index in samples]

    def host_speed(self) -> float:
        """Reference probe time over this run's median probe time."""
        return PROBE_NOMINAL_S / _median(self.probes) if self.probes else 0.0


class WorkloadRun:
    """State of one benchmark run: samples, rows, failures and spans."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "table2") -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from "
                             f"{sorted(WORKLOADS)}")
        self.workload = workload
        self.kind = WORKLOADS[workload][0]
        self.programs = workload_programs(workload, scale)
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.rng = random.Random(seed)
        #: Compile order of every pass; trial seeds continue the same stream.
        self.order = list(self.programs)
        self.rng.shuffle(self.order)
        self.log = SpanLog() if trace else None
        self.expected: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: List[str] = []
        self.errors: List[str] = []
        self.clock = HostClock()
        #: Probe index the samples of the running operation refer to.
        self._probe = 0
        self.setup_s: List[Sample] = []
        #: One list of per-compile samples per pass.
        self.passes: List[List[Sample]] = []
        #: program id -> metrics of its first compile this run (programs
        #: themselves are dropped after their checks; see ``_fresh_heap``).
        self.first: Dict[str, object] = {}
        self.outputs_changed: Dict[str, bool] = {}
        self.compile_ms: Dict[str, List[Sample]] = {}
        self.row_layers: Dict[str, Dict[str, List[float]]] = {}
        self.trial_ms: Dict[str, List[Sample]] = {}
        self.trial_latency: Dict[str, List[float]] = {}
        self.trial_attempts: Dict[str, List[int]] = {}
        self.trial_pairs: Dict[str, List[int]] = {}
        #: per-layer metric -> one value per pass (traced runs only).
        self.layer: Dict[str, List[List[Sample]]] = {}
        self._pass_layer: Dict[str, List[Sample]] = {}
        self._op = 0

    # ---------------------------------------------------------- primitives

    def _next_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def _span(self, name: str, op: int, metric: Optional[str] = None):
        """Time ``name`` in the span log, adding its ms to ``metric``."""
        if self.log is None:
            yield None
            return
        with self.log.span(name, op) as record:
            yield record
        if metric is not None:
            self._count(metric, SpanLog.ms(record))

    def _count(self, metric: str, value: float) -> None:
        self._pass_layer.setdefault(metric, []).append((value, self._probe))

    def _end_pass(self) -> None:
        for metric, value in self._pass_layer.items():
            self.layer.setdefault(metric, []).append(value)
        self._pass_layer = {}

    def _fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        detail = "".join(traceback.format_exception_only(type(exc), exc))
        self.errors.append(f"{what}: {detail.strip()}")

    def _check_failed(self, message: str) -> None:
        self.failed += 1
        self.check_failures.append(message)

    # ------------------------------------------------------------- compile

    def compile(self, program: Program) -> Tuple[object, Sample]:
        """One cold compile; traced runs also time each static layer.

        Returns the program and its (wall seconds, probe index) sample.
        """
        op = self._next_op()
        probe = self._probe
        circuit, network = program.build()
        _fresh_heap()
        name, metric = (("pipeline.remap", "pipeline.remap_ms")
                        if program.remap else
                        ("compile_autocomm", "trace.compile_ms"))
        with self._span(name, op, metric):
            start = time.perf_counter()
            compiled = compile_autocomm(circuit, network,
                                        config=program.config, cache=False)
            elapsed = time.perf_counter() - start
        self.compile_ms.setdefault(program.id, []).append(
            (elapsed * 1e3, probe))
        rows = self.row_layers.setdefault(program.id, {})
        for span_name in ROW_SPANS:
            rows.setdefault(span_name, []).append(sum(
                span.duration * 1e3 for span in compiled.spans.walk()
                if span.name == span_name))
        if self.log is not None:
            if program.remap:
                self._record_remap(compiled)
            else:
                self._probe = self.clock.probe()
                self._compile_layered(program, compiled, op)
        return compiled, (elapsed, probe)

    def _compile_layered(self, program: Program, compiled, op: int) -> None:
        """The static pipeline through each layer's public function."""
        circuit, network = program.build()
        _fresh_heap()
        with self._span(f"compile/{program.id}", op, "trace.layered_ms"):
            network.validate_capacity(circuit.num_qubits)
            with self._span("ir.decompose", op, "ir.decompose_ms"):
                working = decompose_to_cx(circuit)
            with self._span("partition.oee", op, "partition.oee_ms"):
                mapping = oee_partition(working, network).mapping
            before = commutation_cache_stats()
            with self._span("aggregation", op, "aggregation.ms"):
                aggregation = aggregate_communications(working, mapping)
            after = commutation_cache_stats()
            with self._span("assignment", op, "assignment.ms"):
                assignment = assign_communications(aggregation,
                                                   network=network)
            # Plans are memoised on the assignment, so the scheduler below
            # reuses both and its span times list scheduling alone.
            with self._span("scheduling.plan_burst", op,
                            "scheduling.plan_burst_ms"):
                burst_plan = plan_schedule(assignment, True)
            with self._span("scheduling.plan_plain", op,
                            "scheduling.plan_plain_ms"):
                plain_plan = plan_schedule(assignment, False)
            with self._span("scheduling.list", op, "scheduling.list_ms"):
                schedule = schedule_communications(assignment, network)
        self._count("ir.gates", len(working))
        self._count("partition.remote_gates",
                    mapping.count_remote_gates(working))
        self._count("aggregation.blocks", len(aggregation.blocks))
        self._count("aggregation.commute_hits",
                    after["hits"] - before["hits"])
        self._count("aggregation.commute_misses",
                    after["misses"] - before["misses"])
        self._count("assignment.tp_blocks", assignment.num_tp_blocks())
        self._count("assignment.cat_blocks", assignment.num_cat_blocks())
        burst_won = schedule.mode == "burst"
        self._count("scheduling.items", len(
            (burst_plan if burst_won else plain_plan).items))
        self._count("scheduling.burst_won", 1 if burst_won else 0)
        self._count("scheduling.programs", 1)
        if (schedule.latency != compiled.metrics.latency
                or assignment.cost.total_comm != compiled.metrics.total_comm):
            self._check_failed(f"{program.id}: layer-by-layer compile "
                               "disagrees with compile_autocomm")

    def _record_remap(self, compiled) -> None:
        """Phased-path metrics, read from the program's own span tree."""
        self._count("pipeline.phases", compiled.metrics.num_phases)
        self._count("pipeline.migrations", compiled.metrics.migration_moves)
        for span in compiled.spans.walk():
            if span.name == "segment":
                self._count("pipeline.segment_ms", span.duration * 1e3)
            elif span.name == "oee-repartition":
                self._count("pipeline.oee_repartition_ms",
                            span.duration * 1e3)
            elif span.name.startswith("plan-phased-"):
                self._count("pipeline.plan_phased_ms", span.duration * 1e3)

    # -------------------------------------------------------------- checks

    def check(self, program: Program, compiled) -> Tuple[object, float]:
        """Verifier, exact deterministic replay, and the pinned outputs.

        Returns the replay and its wall seconds: on compile workloads the
        replay is that operation's ``simulate_program`` trial.
        """
        op = self._op
        with self._span("verify", op, "verify.ms"):
            report = verify_program(compiled)
        self._count("verify.errors", len(report.errors))
        if report.errors:
            self._check_failed(f"{program.id}: {len(report.errors)} "
                               f"verifier errors: {report.errors[0]}")
        with self._span("sim.replay", op, "sim.replay_ms"):
            start = time.perf_counter()
            result = simulate_program(compiled, REPLAY_CONFIG)
            replay_s = time.perf_counter() - start
        validation = validate_schedule(compiled, result=result)
        if not validation.matches:
            self._check_failed(validation.describe())
        first = self.first.get(program.id)
        if first is None:
            self.first[program.id] = compiled.metrics
            with self._span("persist.dumps", op, "persist.dumps_ms"):
                payload = dumps_program(compiled, spans=False)
            self._count("persist.bytes", len(payload))
            self.outputs_changed[program.id] = self.expected.get(
                program.id) != expected_record(compiled.metrics, payload)
        elif (compiled.metrics.latency, compiled.metrics.total_comm) != (
                first.latency, first.total_comm):
            self._check_failed(f"{program.id}: recompile gave a different "
                               "program")
        return result, replay_s

    def _record_trial(self, program: Program, result, seconds: float) -> None:
        self.trial_ms.setdefault(program.id, []).append(
            (seconds * 1e3, self._probe))
        self.trial_latency.setdefault(program.id, []).append(result.latency)
        self.trial_attempts.setdefault(program.id, []).append(
            result.total_epr_attempts)
        self.trial_pairs.setdefault(program.id, []).append(
            result.total_epr_pairs)

    # -------------------------------------------------------------- phases

    def run(self) -> None:
        try:
            if self.kind == "mc":
                self._run_mc()
            else:
                self._run_compiles()
            self.clock.probe()
        finally:
            gc.unfreeze()

    def _run_compiles(self) -> None:
        for _ in range(SETUP_REPS):
            self._probe = self.clock.probe()
            start = time.perf_counter()
            self.expected = load_expected()
            for program in self.programs:
                program.build()
            self.setup_s.append((time.perf_counter() - start, self._probe))
        _freeze_setup()
        deadline = time.perf_counter() + self.seconds
        while True:
            compiles: List[Sample] = []
            for program in self.order:
                self.attempted += 1
                self._probe = self.clock.probe()
                try:
                    compiled, sample = self.compile(program)
                    compiles.append(sample)
                    # The replay is this operation's trial; a fresh probe
                    # brackets it with the next operation's probe.
                    self._probe = self.clock.probe()
                    result, replay_s = self.check(program, compiled)
                except Exception as exc:  # a failed operation, not a crash
                    self._fail(program.id, exc)
                    continue
                self._record_trial(program, result, replay_s)
            self.passes.append(compiles)
            self._end_pass()
            if time.perf_counter() >= deadline:
                break

    def _run_mc(self) -> None:
        """Set-up compiles the programs; the timed loop runs trials only."""
        compiled: Dict[str, object] = {}
        for _ in range(SETUP_REPS):
            self._probe = self.clock.probe()
            start = time.perf_counter()
            self.expected = load_expected()
            compiles: List[Sample] = []
            for program in self.programs:
                compiled[program.id], sample = self.compile(program)
                compiles.append(sample)
                self._probe = self.clock.probe()
            probing = sum(self.clock.probes[compiles[0][1] + 1:])
            self.setup_s.append((time.perf_counter() - start - probing,
                                 compiles[0][1]))
            self.passes.append(compiles)
            self._end_pass()
        for program in self.programs:
            self.check(program, compiled[program.id])
        self._end_pass()
        _freeze_setup()
        deadline = time.perf_counter() + self.seconds
        while True:
            self._probe = self.clock.probe()
            for program in self.order:
                self.trial(program, compiled[program.id])
            if time.perf_counter() >= deadline:
                break

    def trial(self, program: Program, compiled) -> None:
        """One stochastic execution; a raise is one failed operation."""
        op = self._next_op()
        self.attempted += 1
        config = SimulationConfig(p_epr=MC_P_EPR,
                                  seed=self.rng.getrandbits(63),
                                  record_trace=False)
        _fresh_heap()
        try:
            with self._span(f"sim.trial/{program.id}", op):
                start = time.perf_counter()
                result = simulate_program(compiled, config)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # e.g. a comm-qubit booking error
            self._fail(f"{program.id} trial seed={config.seed}", exc)
            return
        expected_items = compiled.schedule.num_scheduled_items()
        if (result.num_scheduled_items() != expected_items
                or not math.isfinite(result.latency) or result.latency <= 0):
            self._check_failed(f"{program.id} trial seed={config.seed}: "
                               f"executed {result.num_scheduled_items()} of "
                               f"{expected_items} items, latency "
                               f"{result.latency}")
            return
        self._record_trial(program, result, elapsed)

    # ------------------------------------------------------------- metrics

    def pass_seconds(self, scaled: bool = True) -> List[float]:
        """Total compile time of each pass (host-scaled unless ``scaled``
        is false)."""
        return [sum(self.clock.scaled(p)) if scaled else
                sum(value for value, _ in p) for p in self.passes if p]

    def trial_samples(self, scaled: bool = True) -> Dict[str, List[float]]:
        """Program id -> trial milliseconds (host-scaled by default)."""
        return {pid: (self.clock.scaled(v) if scaled else
                      [value for value, _ in v])
                for pid, v in self.trial_ms.items() if v}

    def end_to_end(self) -> Dict[str, Tuple[float, int]]:
        """Metric -> (value, sample count); times are host-scaled."""
        trials = sum(len(v) for v in self.trial_ms.values())
        passes = self.pass_seconds()
        programs = list(self.first.values())
        ratios = []
        for program in self.programs:
            if program.remap and program.id in self.first:
                twin = self.first.get(replace(program, remap=False).id)
                if twin is not None:
                    ratios.append(self.first[program.id].latency
                                  / twin.latency)
        medians = [_median(v) for v in self.trial_samples().values()]
        return {
            "compile_s": (_median(passes), len(passes)),
            "trials_per_s": (len(medians) / (sum(medians) / 1e3)
                             if medians else 0.0, trials),
            "trial_ms_p50": (_geomean(medians), trials),
            "success_frac": (1.0 - self.failed / max(1, self.attempted),
                             self.attempted),
            "latency_cx": (_geomean([m.latency for m in programs]),
                           len(programs)),
            "total_comm": (_geomean([m.total_comm for m in programs]),
                           len(programs)),
            "epr_pairs": (_geomean([m.total_epr_pairs for m in programs]),
                          len(programs)),
            "remap_vs_static": (_geomean(ratios) if ratios else 1.0,
                                len(ratios)),
            "sim_latency_mean": (_geomean([statistics.fmean(v) for v in
                                           self.trial_latency.values()
                                           if v]), trials),
            "setup_s": (_median(self.clock.scaled(self.setup_s)),
                        len(self.setup_s)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, 1),
        }

    def per_layer(self) -> Dict[str, Tuple[float, int]]:
        layer = self.layer
        passes = max((len(v) for v in layer.values()), default=0)

        def per_pass(name: str) -> List[float]:
            """Per-pass sums; times are host-scaled like every sample."""
            timed = name.endswith("_ms") or PER_LAYER.get(name) == "ms"
            return [sum(self.clock.scaled(samples)) if timed
                    else sum(value for value, _ in samples)
                    for samples in layer.get(name, [])]

        def med(name: str) -> float:
            return _median(per_pass(name))

        values = {name: med(name) for name in PER_LAYER}
        hits, misses = med("aggregation.commute_hits"), med(
            "aggregation.commute_misses")
        values["aggregation.commute_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        programs = med("scheduling.programs")
        values["scheduling.burst_won_frac"] = (
            values["scheduling.burst_won"] / programs if programs else 0.0)
        per_program_ms = list(self.trial_samples().values())
        values["sim.trial_ms"] = _geomean([_median(v) for v in per_program_ms])
        values["sim.trial_ms_p90"] = _geomean([_p90(v) for v in per_program_ms])
        values["sim.epr_attempts"] = _geomean(
            [statistics.fmean(v) for v in self.trial_attempts.values() if v])
        values["sim.epr_pairs"] = _geomean(
            [statistics.fmean(v) for v in self.trial_pairs.values() if v])
        static_passes = zip(*(per_pass(name) for name in STATIC_LAYERS))
        values["trace.layers_ms"] = _median([sum(p) for p in static_passes])
        compile_ms = values["trace.compile_ms"]
        values["trace.overhead_pct"] = (
            100.0 * (med("trace.layered_ms") - compile_ms) / compile_ms
            if compile_ms else 0.0)
        values["trace.spans"] = float(len(self.log.spans)) if self.log else 0.0
        counts = {name: len(layer.get(name, [])) or passes
                  for name in PER_LAYER}
        counts["sim.trial_ms"] = counts["sim.trial_ms_p90"] = sum(
            len(v) for v in per_program_ms)
        return {name: (values[name], counts[name]) for name in PER_LAYER}

    def rows(self) -> List[Dict[str, object]]:
        """One row per program: compile and layer ms, trials, outputs."""
        rows = []
        for program in self.programs:
            pid = program.id
            first = self.first.get(pid)
            compiles = self.clock.scaled(self.compile_ms.get(pid, []))
            row: Dict[str, object] = {
                "program": pid,
                "compiles": len(compiles),
                "compile_ms": _median(compiles),
            }
            for name, samples in self.row_layers.get(pid, {}).items():
                row[f"{name}_ms"] = _median(samples)
            trials = self.clock.scaled(self.trial_ms.get(pid, []))
            row.update({
                "trials": len(trials),
                "trial_ms_p50": _median(trials),
                "trial_ms_p90": _p90(trials),
                "sim_latency_mean": (statistics.fmean(
                    self.trial_latency[pid]) if trials else 0.0),
                "latency": first.latency if first else None,
                "total_comm": first.total_comm if first else None,
                "outputs_changed": self.outputs_changed.get(pid),
            })
            rows.append(row)
        return rows


# ---------------------------------------------------------------------------
# Metadata and reporting
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over ``src/repro`` sources: identifies the measured code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(run: WorkloadRun) -> Dict[str, object]:
    return {
        "workload": run.workload, "seed": run.seed, "scale": run.scale,
        "seconds": run.seconds, "trace": run.log is not None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "passes": len(run.passes),
        "trials": sum(len(v) for v in run.trial_ms.values()),
        "attempted": run.attempted, "failed": run.failed,
        "p_epr": MC_P_EPR if run.kind == "mc" else 1.0,
    }


def _format_rows(rows: List[Dict[str, object]]) -> List[str]:
    columns = ["program", "compiles", "compile_ms"] + [
        f"{name}_ms" for name in ROW_SPANS] + [
        "trials", "trial_ms_p50", "trial_ms_p90", "latency", "total_comm",
        "outputs_changed"]
    lines = ["  ".join(columns)]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column)
            cells.append(f"{value:.3f}" if isinstance(value, float)
                         else str(value))
        lines.append("  ".join(cells))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "table2", out_dir: Optional[Path] = OUT_DIR
                 ) -> Tuple[Dict[str, object], List[str]]:
    """Run one workload; returns (result JSON object, report lines)."""
    run = WorkloadRun(workload, seed, seconds, trace, scale)
    run.run()
    selected = run.per_layer() if trace else run.end_to_end()
    units = PER_LAYER if trace else END_TO_END
    meta = metadata(run)
    rows = run.rows()
    changed = sum(1 for flag in run.outputs_changed.values() if flag)
    lines = [f"# perfbench {json.dumps(meta, sort_keys=True)}"]
    lines += _format_rows(rows)
    lines.append(f"{'metric':<32} {'value':>16} {'unit':<6} n")
    for name, (value, count) in selected.items():
        lines.append(f"{name:<32} {value:>16.6g} {units[name]:<6} {count}")
    # Printed for people, not gated: the tail and the raw wall times carry
    # the host's noise, and the last two are normally 0 (a gated metric
    # must never be 0).
    trials = list(run.trial_samples().values())
    raw_trials = list(run.trial_samples(scaled=False).values())
    raw_passes = run.pass_seconds(scaled=False)
    count = sum(len(v) for v in trials)
    report_only = {
        "trial_ms_p90": (_geomean([_p90(v) for v in trials]), "ms", count),
        "compile_s_raw": (_median(raw_passes), "s", len(raw_passes)),
        "trial_ms_p50_raw": (_geomean([_median(v) for v in raw_trials]),
                             "ms", count),
        "host_speed": (run.clock.host_speed(), "ratio",
                       len(run.clock.probes)),
        "failed_frac": (run.failed / max(1, run.attempted), "ratio",
                        run.attempted),
        "outputs_changed": (changed, "count", len(run.outputs_changed)),
    }
    for name, (value, unit, count) in report_only.items():
        lines.append(f"{name:<32} {value:>16.6g} {unit:<6} {count}")
    for message in run.check_failures[:10] + run.errors[:10]:
        lines.append(f"! {message}")
    correct = not run.check_failures and run.attempted > run.failed
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in selected.items()},
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-{scale}-seed{seed}-trace{int(trace)}"
        report = {"meta": meta, "rows": rows, "result": result,
                  "samples": {name: count for name, (_, count)
                              in selected.items()},
                  "raw": {"passes": run.passes, "setup_s": run.setup_s,
                          "compile_ms": run.compile_ms,
                          "trial_ms": run.trial_ms,
                          "probes": run.clock.probes},
                  "outputs_changed": changed,
                  "check_failures": run.check_failures,
                  "errors": run.errors,
                  "spans": run.log.spans if run.log else []}
        with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return result, lines
