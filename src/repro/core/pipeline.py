"""AutoComm compilation pipeline.

:func:`compile_program` is the compile path of every compiler, AutoComm
and the baselines of :mod:`repro.baselines` alike: it validates capacity,
decomposes, places qubits with OEE when no mapping is given, calls the
compiler's block-forming step (:data:`FormStep`), schedules the phases and
prices the result with the one metrics block into a
:class:`CompiledProgram`.  So every compiler is measured by identical code
and differs only in how it forms communication blocks.
:class:`AutoCommCompiler`'s step chains the paper's aggregation and
assignment passes.

**Phase-structured compilation** (``AutoCommConfig.remap = "bursts"``)
extends the paper's single static OEE mapping with dynamic inter-phase
remapping: the aggregated program is segmented at burst-phase boundaries
(extending Baker et al.'s time-sliced partitioning from gate slices to the
aggregated burst structure), and each later phase runs an incremental,
migration-cost-aware OEE pass (:func:`repro.partition.oee.oee_repartition`)
seeded from the previous phase's mapping.  A remap only happens where the
phase's routed communication savings beat the migration bill — each qubit
move is charged its routed teleport distance — and the moves are made
explicit as :class:`~repro.core.scheduling.MigrationOp` teleports between
the phases, scheduled and simulated like any other communication.  Both
modes run one compile path: a static compile (the default ``remap =
"never"``) is its one-phase case, the base aggregation under the initial
mapping with no migrations.  Past the compiler a static program stays the
one-phase case: :attr:`CompiledProgram.phase_view` is the one phase list
that scheduling, replay, verification and analysis read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..comm.blocks import CommBlock
from ..comm.cost import total_comm_count
from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from ..ir.decompose import decompose_to_cx
from ..obs.span import Span, Tracer, stage
from ..partition.mapping import QubitMapping
from ..partition.oee import oee_partition, oee_repartition
from .aggregation import (AggregationResult, ScheduleItem,
                          aggregate_communications)
from .assignment import AssignmentResult, assign_communications
from .metrics import (CompilationMetrics, communication_loads,
                      distribution_from_loads)
from .scheduling import (MigrationOp, ScheduleResult,
                         schedule_phased_communications)

__all__ = ["AutoCommConfig", "CompiledPhase", "CompiledProgram", "FormStep",
           "compile_program", "compile_traced", "static_form",
           "AutoCommCompiler", "compile_autocomm"]

#: Accepted values of :attr:`AutoCommConfig.remap`.
REMAP_MODES = ("never", "bursts")

#: Accepted values of :attr:`AutoCommConfig.phase_sizing`.
PHASE_SIZING_MODES = ("fixed", "auto")


@dataclass(frozen=True)
class AutoCommConfig:
    """Knobs of the AutoComm pipeline (each maps to one paper ablation)."""

    #: Use gate commutation during aggregation (Figure 17a ablation when off).
    use_commutation: bool = True
    #: Force Cat-Comm for every block (Figure 17b ablation when on).
    cat_only: bool = False
    #: Scheduling strategy: "burst-greedy" (AutoComm) or "greedy" (Figure 17c).
    schedule_strategy: str = "burst-greedy"
    #: Dynamic inter-phase remapping: "never" keeps the paper's single
    #: static mapping (a one-phase compile, no migrations); "bursts"
    #: segments the aggregated program at burst-phase boundaries and
    #: re-partitions incrementally between phases, migration-cost-aware.
    remap: str = "never"
    #: Burst blocks per phase when segmenting under ``remap = "bursts"``.
    phase_blocks: int = 8
    #: Zero-bubble phase boundaries: schedule migration teleports on
    #: per-qubit edges so they overlap with compute on both sides of the
    #: boundary, instead of draining each phase behind a hard barrier.
    #: Adaptive — the barrier plans stay in the candidate pool, so an
    #: overlapped schedule is never slower, nor bubblier, than the barrier
    #: one.  Requires ``remap = "bursts"``.
    overlap: bool = False
    #: How phase boundaries are placed: "fixed" slices every
    #: ``phase_blocks`` burst blocks; "auto" searches a window around that
    #: quota and puts each boundary where the repartitioner's migration
    #: bill (priced via the routed migration-distance matrix) is cheapest.
    #: Requires ``remap = "bursts"``.
    phase_sizing: str = "fixed"


@dataclass
class CompiledPhase:
    """One phase of a phase-structured compile: its mapping and passes."""

    index: int
    mapping: QubitMapping
    aggregation: AggregationResult
    assignment: AssignmentResult

    @property
    def blocks(self) -> List[CommBlock]:
        return self.assignment.blocks


@dataclass
class CompiledProgram:
    """Result of compiling one distributed program."""

    name: str
    compiler: str
    circuit: Circuit
    mapping: QubitMapping
    network: QuantumNetwork
    blocks: List[CommBlock]
    metrics: CompilationMetrics
    aggregation: Optional[AggregationResult] = None
    assignment: Optional[AssignmentResult] = None
    schedule: Optional[ScheduleResult] = None
    #: Dynamic-remapping mode the program was compiled under.
    remap: str = "never"
    #: Phase structure of a ``remap = "bursts"`` compile (``None`` for the
    #: static pipeline).  ``mapping`` then holds the *initial* (phase-0)
    #: mapping; each phase carries its own.
    phases: Optional[List[CompiledPhase]] = None
    #: One migration list per phase boundary (``len(phases) - 1`` entries).
    migrations: Optional[List[List[MigrationOp]]] = None
    #: Stage-timing tree of the compile (:mod:`repro.obs`): wall time and
    #: counters per pass, phases nested.  Purely observational — ``None``
    #: when tracing was globally disabled — and excluded from every
    #: equivalence comparison.
    spans: Optional[Span] = None

    @property
    def phase_view(self) -> Tuple[CompiledPhase, ...]:
        """The stored ``phases``, or a static program's one phase built from
        its own objects (so the plan memo keyed on them is hit); read-only.
        :class:`ValueError` when a static program lacks its passes."""
        if self.phases:
            return tuple(self.phases)
        if self.aggregation is None or self.assignment is None:
            raise ValueError(
                f"program {self.name!r} carries no assignment result; "
                "compile it with a pipeline that keeps intermediate passes")
        return (CompiledPhase(0, self.mapping, self.aggregation,
                              self.assignment),)

    def burst_distribution(self, max_x: Optional[int] = None) -> Dict[int, float]:
        """Figure 15 distribution for this compiled program.

        Communication loads are pooled over the phases, each classified
        under its own phase mapping.
        """
        loads: List[float] = []
        for phase in self.phase_view:
            loads.extend(communication_loads(phase.blocks, phase.mapping))
        return distribution_from_loads(loads, max_x=max_x)

    def summary(self) -> Dict[str, object]:
        data = self.metrics.as_dict()
        data["compiler"] = self.compiler
        return data


#: A compiler's block-forming step, the one step in which compilers differ:
#: ``form(working, network, mapping) -> (base, phases, migrations)`` turns
#: the decomposed, placed circuit into its base aggregation, its phase list
#: and one migration list per phase boundary (``None`` for a static
#: program, whose one phase runs under ``mapping``).
FormStep = Callable[
    [Circuit, QuantumNetwork, QubitMapping],
    Tuple[AggregationResult, List[CompiledPhase],
          Optional[List[List[MigrationOp]]]]]


def compile_program(circuit: Circuit, network: QuantumNetwork,
                    mapping: Optional[QubitMapping], form: FormStep, *,
                    compiler: str, strategy: str, overlap: bool = False,
                    remap: str = "never") -> CompiledProgram:
    """The compile path of every compiler: one skeleton, one metrics block.

    Validates capacity, decomposes to CX (``decompose`` span), places the
    qubits with the OEE static partitioner when ``mapping`` is omitted
    (exactly as in the paper's experimental setup), forms the blocks with
    ``form``, schedules the phases with ``strategy``/``overlap`` and prices
    the program.  A static program (``migrations`` ``None``) keeps its
    shape: ``assignment`` set, ``phases``/``migrations`` ``None``.  Stages
    land under the caller's tracer, if any.
    """
    network.validate_capacity(circuit.num_qubits)
    with stage("decompose") as span:
        working = decompose_to_cx(circuit)
        span.set("gates", len(working))
    if mapping is None:
        mapping = oee_partition(working, network).mapping
    base, phases, migrations = form(working, network, mapping)
    schedule = schedule_phased_communications(
        phases, migrations, network, strategy=strategy, overlap=overlap)

    static = migrations is None
    moves = [move for boundary in migrations or () for move in boundary]
    # Static programs have always reported the float 0.0 and a phased
    # compile without moves the int 0; both are kept byte-identical.
    migration_latency = sum(
        (network.epr_latency(move.source, move.target)
         + network.latency.t_teleport for move in moves),
        0.0 if static else 0)
    costs = [phase.assignment.cost for phase in phases]
    total_epr_latency = (
        sum(c.total_epr_latency for c in costs)
        if all(c.total_epr_latency is not None for c in costs) else None)
    metrics = CompilationMetrics(
        name=circuit.name,
        total_comm=sum(c.total_comm for c in costs),
        tp_comm=sum(c.tp_comm for c in costs),
        cat_comm=sum(c.cat_comm for c in costs),
        peak_rem_cx=max((c.peak_remote_cx for c in costs), default=0.0),
        latency=schedule.latency,
        num_blocks=sum(len(phase.blocks) for phase in phases),
        num_remote_gates=sum(
            phase.mapping.count_remote_gates(phase.aggregation.circuit)
            for phase in phases),
        total_epr_pairs=sum(c.total_epr_pairs for c in costs),
        total_epr_latency=total_epr_latency,
        num_phases=len(phases),
        migration_moves=len(moves),
        migration_latency=migration_latency,
        boundary_bubble=schedule.boundary_bubble,
    )
    return CompiledProgram(
        name=circuit.name,
        compiler=compiler,
        circuit=working,
        mapping=mapping,
        network=network,
        blocks=[block for phase in phases for block in phase.blocks],
        metrics=metrics,
        aggregation=base,
        assignment=phases[0].assignment if static else None,
        schedule=schedule,
        remap=remap,
        phases=None if static else phases,
        migrations=migrations,
    )


def compile_traced(circuit: Circuit, network: QuantumNetwork,
                   mapping: Optional[QubitMapping], form: FormStep,
                   **options) -> CompiledProgram:
    """:func:`compile_program` under its own tracer, so the program's
    ``spans`` carries the stage tree (``None`` when tracing is off)."""
    with Tracer(f"compile/{circuit.name}") as tracer:
        program = compile_program(circuit, network, mapping, form, **options)
    program.spans = tracer.root
    return program


def static_form(working: Circuit, network: QuantumNetwork,
                mapping: QubitMapping, items: List[ScheduleItem],
                blocks: List[CommBlock]):
    """A :data:`FormStep` result for one static phase of formed blocks.

    ``blocks`` already carry their schemes; they are priced under
    ``mapping`` and ``items`` (gates and blocks, in program order) are
    scheduled as they stand.
    """
    base = AggregationResult(working, mapping, items, blocks)
    assignment = AssignmentResult(
        aggregation=base, blocks=blocks,
        cost=total_comm_count(blocks, mapping, network=network))
    return base, [CompiledPhase(0, mapping, base, assignment)], None


class AutoCommCompiler:
    """The burst-communication-centric compiler of the paper."""

    def __init__(self, config: Optional[AutoCommConfig] = None) -> None:
        self.config = config or AutoCommConfig()
        if self.config.remap not in REMAP_MODES:
            raise ValueError(f"unknown remap mode {self.config.remap!r}; "
                             f"choose from {REMAP_MODES}")
        if self.config.phase_blocks < 1:
            raise ValueError("phase_blocks must be >= 1")
        if self.config.phase_sizing not in PHASE_SIZING_MODES:
            raise ValueError(
                f"unknown phase sizing {self.config.phase_sizing!r}; "
                f"choose from {PHASE_SIZING_MODES}")
        if self.config.remap == "never":
            if self.config.overlap:
                raise ValueError('overlap requires remap="bursts"')
            if self.config.phase_sizing != "fixed":
                raise ValueError('phase_sizing="auto" requires '
                                 'remap="bursts"')

    def compile(self, circuit: Circuit, network: QuantumNetwork,
                mapping: Optional[QubitMapping] = None,
                cache=None) -> CompiledProgram:
        """Compile ``circuit`` for ``network``.

        When ``mapping`` is omitted the qubits are placed with the OEE static
        partitioner, exactly as in the paper's experimental setup.

        Every compile runs under an :mod:`repro.obs` tracer: the returned
        program's ``spans`` field carries the stage-timing tree (one child
        per pass, phases nested) unless tracing was globally disabled.

        ``cache`` enables the persistent compile cache
        (:mod:`repro.persist`): a :class:`~repro.persist.CompileCache`, a
        directory path, ``None`` to consult the ``REPRO_CACHE_DIR``
        environment variable, or ``False`` to force caching off.  On a hit
        the whole pipeline is skipped and the deserialized program (with a
        fresh lookup-only span tree) is returned; on a miss the compiled
        program is stored before returning.
        """
        store = self._resolve_cache(cache)
        key = None
        cached = None
        with Tracer(f"compile/{circuit.name}") as tracer:
            if store is not None:
                from ..persist.fingerprint import compile_fingerprint
                key = compile_fingerprint(circuit, network, mapping,
                                          self.config)
                with stage("cache-lookup") as span:
                    cached = store.load(key)
                    span.set("hit", 1 if cached is not None else 0)
            if cached is None:
                program = compile_program(
                    circuit, network, mapping, self._form,
                    compiler=self._compiler_label(),
                    strategy=self.config.schedule_strategy,
                    overlap=self.config.overlap, remap=self.config.remap)
        if cached is not None:
            cached.spans = tracer.root
            return cached
        program.spans = tracer.root
        if store is not None:
            store.store(key, program)
        return program

    @staticmethod
    def _resolve_cache(cache):
        """Resolve the ``cache`` argument lazily.

        The guard keeps the default (uncached) path free of any
        :mod:`repro.persist` import — compilation without a cache neither
        pays for nor depends on the persistence layer.
        """
        if (cache is None or cache is False) \
                and not os.environ.get("REPRO_CACHE_DIR"):
            return None
        from ..persist.cache import resolve_cache
        return resolve_cache(cache)

    def _form(self, working: Circuit, network: QuantumNetwork,
              mapping: QubitMapping):
        """AutoComm's :data:`FormStep`: aggregate, then assign per phase.

        The base aggregation discovers the burst structure the phases are
        sliced along; phase 0 reuses its blocks verbatim.  Under ``remap =
        "never"`` the only phase is the base aggregation under the initial
        mapping, with no boundary list (``None``).  Otherwise the base items
        are segmented at burst-phase boundaries and each later phase is
        repartitioned and, when remapped, re-aggregated under its new
        mapping.
        """
        base = aggregate_communications(
            working, mapping, use_commutation=self.config.use_commutation)
        assign = partial(assign_communications, cat_only=self.config.cat_only,
                         network=network)
        if self.config.remap == "never":
            return base, [CompiledPhase(0, mapping, base, assign(base))], None
        with stage("segment") as span:
            if self.config.phase_sizing == "auto":
                segments, decisions = _segment_items_auto(
                    base.items, self.config.phase_blocks, working, network,
                    mapping)
                span.set("sizing_auto", 1)
                span.set("sizing_candidates",
                         sum(len(d["candidates"]) for d in decisions))
            else:
                segments = _segment_items(base.items,
                                          self.config.phase_blocks)
                span.set("sizing_auto", 0)
            span.set("phases", len(segments))
            span.set("phase_blocks", self.config.phase_blocks)

        phases: List[CompiledPhase] = []
        migrations: List[List[MigrationOp]] = []
        current = mapping
        for index, segment in enumerate(segments):
            with stage(f"phase-{index}") as phase_span:
                phase_circuit = _phase_circuit(working, segment, index)
                if index > 0:
                    with stage("migration-planning") as plan_span:
                        repartition = oee_repartition(phase_circuit, network,
                                                      previous=current)
                        new_mapping = repartition.mapping
                        moves = [MigrationOp(qubit=q,
                                             source=current.node_of(q),
                                             target=new_mapping.node_of(q))
                                 for q in range(working.num_qubits)
                                 if new_mapping.node_of(q) != current.node_of(q)]
                        plan_span.set("moves", len(moves))
                        plan_span.set("migration_cost",
                                      repartition.migration_cost)
                    migrations.append(moves)
                    if moves:
                        current = new_mapping
                if current is mapping:
                    # Blocks from the initial aggregation were built under the
                    # initial mapping, so an un-remapped phase reuses them.
                    aggregation = AggregationResult(
                        circuit=phase_circuit, mapping=current,
                        items=list(segment),
                        blocks=[i for i in segment
                                if isinstance(i, CommBlock)])
                else:
                    aggregation = aggregate_communications(
                        phase_circuit, current,
                        use_commutation=self.config.use_commutation)
                assignment = assign(aggregation)
                phase_span.set("blocks", len(assignment.blocks))
                phases.append(CompiledPhase(index=index, mapping=current,
                                            aggregation=aggregation,
                                            assignment=assignment))
        return base, phases, migrations

    def _compiler_label(self) -> str:
        label = "autocomm"
        if not self.config.use_commutation:
            label += "-nocommute"
        if self.config.cat_only:
            label += "-catonly"
        if self.config.schedule_strategy != "burst-greedy":
            label += f"-{self.config.schedule_strategy}"
        if self.config.remap != "never":
            label += "-remap"
        if self.config.overlap:
            label += "-overlap"
        if self.config.phase_sizing == "auto":
            label += "-autosize"
        return label


def _segment_items(items: Sequence[ScheduleItem],
                   phase_blocks: int) -> List[List[ScheduleItem]]:
    """Slice an aggregated item list at burst-phase boundaries.

    A boundary is placed immediately before a burst block once the open
    phase already holds ``phase_blocks`` blocks; local gates between two
    blocks stay with the earlier phase, and trailing local gates join the
    last phase.  Every phase therefore holds at least one burst block
    (except a blockless program, which yields a single phase).
    """
    segments: List[List[ScheduleItem]] = []
    open_segment: List[ScheduleItem] = []
    open_blocks = 0
    for item in items:
        if isinstance(item, CommBlock) and open_blocks >= phase_blocks:
            segments.append(open_segment)
            open_segment = []
            open_blocks = 0
        open_segment.append(item)
        if isinstance(item, CommBlock):
            open_blocks += 1
    if open_segment or not segments:
        segments.append(open_segment)
    return segments


def _segment_items_auto(items: Sequence[ScheduleItem], phase_blocks: int,
                        working: Circuit, network: QuantumNetwork,
                        mapping: QubitMapping):
    """Remap-aware phase sizing: place boundaries where migration is cheap.

    Greedy left-to-right replacement for the fixed ``phase_blocks`` quota:
    each boundary may fall anywhere in a slack window around the quota
    (``max(1, phase_blocks // 2)`` blocks either side), and every candidate
    position is priced by seeding :func:`~repro.partition.oee.oee_repartition`
    — whose objective charges each move its routed
    :func:`~repro.partition.oee.migration_distance_matrix` distance — with
    the mapping the open phase runs under, over a preview of the next
    ``phase_blocks`` burst blocks.  The candidate with the smallest
    migration bill wins; ties prefer the position closest to the quota,
    then the earliest.  The main phase loop re-runs the repartition on the
    chosen segments, so sizing only decides *where* boundaries go, never
    what migrates.

    Returns ``(segments, decisions)`` where ``decisions`` records, per
    boundary, every candidate's block count and priced bill plus the
    chosen count — the auditable trail the sizing tests pin down.
    """
    slack = max(1, phase_blocks // 2)
    lo = max(1, phase_blocks - slack)
    hi = phase_blocks + slack
    block_positions = [i for i, item in enumerate(items)
                       if isinstance(item, CommBlock)]
    segments: List[List[ScheduleItem]] = []
    decisions: List[Dict[str, object]] = []
    start = 0
    block_cursor = 0
    current = mapping
    while len(block_positions) - block_cursor > lo:
        remaining = len(block_positions) - block_cursor
        candidates = []
        for count in range(lo, min(hi, remaining - 1) + 1):
            boundary = block_positions[block_cursor + count]
            preview_last = block_cursor + count + phase_blocks
            preview_end = (block_positions[preview_last]
                           if preview_last < len(block_positions)
                           else len(items))
            preview = _phase_circuit(working, items[boundary:preview_end],
                                     len(segments) + 1)
            repartition = oee_repartition(preview, network, previous=current)
            candidates.append({
                "blocks": count,
                "boundary_item": boundary,
                "migration_cost": repartition.migration_cost,
                "migration_moves": repartition.migration_moves,
                "mapping": repartition.mapping,
            })
        if not candidates:
            break
        chosen = min(candidates,
                     key=lambda c: (c["migration_cost"],
                                    abs(c["blocks"] - phase_blocks),
                                    c["blocks"]))
        decisions.append({
            "boundary": len(segments),
            "candidates": [{"blocks": c["blocks"],
                            "migration_cost": c["migration_cost"],
                            "migration_moves": c["migration_moves"]}
                           for c in candidates],
            "chosen_blocks": chosen["blocks"],
            "migration_cost": chosen["migration_cost"],
        })
        segments.append(list(items[start:chosen["boundary_item"]]))
        start = chosen["boundary_item"]
        block_cursor += chosen["blocks"]
        if chosen["migration_moves"]:
            current = chosen["mapping"]
    if items[start:] or not segments:
        segments.append(list(items[start:]))
    return segments, decisions


def _phase_circuit(working: Circuit, segment: Sequence[ScheduleItem],
                   index: int) -> Circuit:
    """Flatten one phase's items back into a plain circuit."""
    phase = Circuit(working.num_qubits, name=f"{working.name}-phase{index}")
    for item in segment:
        if isinstance(item, CommBlock):
            phase.extend(item.gates)
        else:
            phase.append(item)
    return phase


def compile_autocomm(circuit: Circuit, network: QuantumNetwork,
                     mapping: Optional[QubitMapping] = None,
                     config: Optional[AutoCommConfig] = None,
                     cache=None) -> CompiledProgram:
    """One-call convenience wrapper around :class:`AutoCommCompiler`."""
    return AutoCommCompiler(config).compile(circuit, network, mapping,
                                            cache=cache)
