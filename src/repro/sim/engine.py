"""Discrete-event execution engine for compiled distributed programs.

The engine *executes* a compiled program's schedule plan on the modelled
hardware instead of estimating its latency analytically: the plan's event
loop places the communications and zero-duration gates (barriers) through
the engine and settles every other gate itself, since a gate books nothing
and draws no randomness.  A settled gate leaves only its ready and end
times; its record is built when :attr:`SimulationResult.ops` is first
read, so a Monte-Carlo trial nobody inspects builds none.  The trace
records EPR-generation, teleportation and classical-message events;
communication qubits are occupied through the same
:class:`~repro.hardware.epr.CommResourceTracker` the analytical scheduler
uses, and EPR pairs are produced by a (possibly stochastic)
:class:`~repro.sim.epr_process.EPRProcess`.

Two properties anchor the design:

* **Deterministic equivalence** — the engine replays the exact plan
  (:func:`repro.core.scheduling.plan_phased_schedule` over the program's
  ``phases``: a static program is its one-phase case, so one lookup,
  :func:`plan_for_program`, serves every program) the analytical scheduler
  used through the same event loop (:func:`repro.core.scheduling.run_plan`),
  so placement decisions come in the same ``(ready time, item index)``
  order by construction: the loop heaps only the items ``place`` sees, and
  an item released by a settled gate is ready strictly after that gate,
  so it never ties with an item already placed.  Every plan carries the
  mapping of each item, so the engine needs the plan and the network
  only.  With ``p_epr = 1.0``
  each sampled preparation equals the analytical prep latency, the engine
  books identical resource windows, and the simulated program latency
  equals the analytical :class:`~repro.core.scheduling.ScheduleResult`
  latency bit-for-bit.  The validator in :mod:`repro.sim.validate` guards
  the EPR source and the booking.
* **Seeded stochasticity** — with ``p_epr < 1`` every EPR preparation is a
  sampled retry process whose attempts all draw from the engine's one
  ``random.Random(config.seed)``; a Monte-Carlo run over ``trials`` seeded
  trials yields a reproducible latency distribution.

EPR preparation is requested ahead of an item's data-readiness whenever a
communication qubit is free early (the analytical scheduler's pipelining
assumption); each trial therefore realises one feasible timed execution of
the program under the sampled EPR durations.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.pipeline import CompiledProgram
from ..core.scheduling import (CommGroups, SchedulePlan,
                               plan_phased_schedule, run_plan)
from ..hardware.epr import CommResourceTracker, SlotSchedule
from ..hardware.network import QuantumNetwork
from ..obs.metrics import MetricsRegistry
from .epr_process import EPRProcess
from .trace import LatencyDistribution, TraceRecorder

__all__ = ["SimulationConfig", "SimulatedOp", "SimulationResult",
           "MonteCarloResult", "ExecutionEngine", "simulate_program",
           "run_monte_carlo", "plan_for_program"]

@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run."""

    #: Success probability of one EPR generation attempt (1.0 = deterministic).
    p_epr: float = 1.0
    #: Latency of one failed attempt; defaults to the pair's EPR latency.
    retry_latency: Optional[float] = None
    #: Master seed for stochastic runs.
    seed: Optional[int] = None
    #: Monte-Carlo trials for :func:`run_monte_carlo`.
    trials: int = 1
    #: Ignore link capacities and per-link success probabilities (per-link
    #: *latencies* are kept — the analytical model includes them).  This is
    #: the analytical scheduler's idealisation; the schedule validator turns
    #: it on so deterministic replay checks the latency model and nothing
    #: else.
    ideal_links: bool = False
    #: Record the fine-grained event trace (disable for large sweeps).
    record_trace: bool = True
    #: Fill a :class:`~repro.obs.metrics.MetricsRegistry` with queue waits,
    #: per-link EPR generation/retry counts, migration stalls and comm-qubit
    #: occupancy.  Observation only: latencies and Monte-Carlo streams are
    #: bit-identical with this on or off.
    record_metrics: bool = True
    #: Worker processes for :func:`run_monte_carlo`.  Each trial's stream is
    #: seeded independently from the master generator, so any worker count
    #: returns identical latencies, attempts and merged metrics; ``1``
    #: (default) runs in-process and never touches a pool.
    workers: int = 1


class SimulatedOp(NamedTuple):
    """One executed operation with its simulated time windows.

    A tuple record: immutable, hashable and picklable, with no
    per-instance ``__dict__``.  A trial builds one per comm op and
    zero-duration gate as it places them; the other gates' records are
    built only when :attr:`SimulationResult.ops` is first read.  Derive a
    changed copy with ``op._replace(start=...)``.
    """

    index: int
    kind: str                    # "gate", "cat", "tp", "tp-chain"
    start: float                 # protocol start (EPR ready, data ready)
    end: float
    nodes: Tuple[int, ...] = ()
    prep_start: float = 0.0      # EPR generation start (= start for gates)
    epr_attempts: int = 0
    num_items: int = 1
    #: Physical EPR pairs consumed (swaps included on routed topologies).
    epr_pairs: int = 0
    #: Wait beyond the earliest feasible start (comm-qubit / link
    #: contention); 0 for gates.
    queue_wait: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SimulationResult:
    """Outcome of executing one program once.

    Built from :func:`~repro.core.scheduling.run_plan`'s ``(records,
    ready, ends)``: the latency and the EPR totals come from those lists
    directly, and :attr:`ops` expands them into one record per plan item
    on first read.  A Monte-Carlo trial whose records nobody reads
    therefore never builds the gates' records.
    """

    latency: float
    trace: TraceRecorder
    resources: CommResourceTracker
    mode: str
    seed: Optional[int] = None
    total_epr_attempts: int = 0
    #: Physical EPR pairs the execution actually generated, entanglement
    #: swaps included.  Lower than the compiler's per-block
    #: ``CompilationMetrics.total_epr_pairs`` when TP chains were fused
    #: (k+1 teleports instead of 2k) — this counts the itinerary really
    #: flown, the metric counts the paper's per-block convention.
    total_epr_pairs: int = 0
    #: Registry the engine filled during this run (shared across trials in
    #: a Monte-Carlo run); disabled when ``record_metrics`` was off.
    metrics: Optional[MetricsRegistry] = None
    #: ``run_plan``'s ``(records, ready, ends)``, which :attr:`ops` expands.
    plan_run: Optional[Tuple[List[Optional[SimulatedOp]], List[float],
                             List[float]]] = field(default=None, repr=False,
                                                   compare=False)
    _ops: Optional[List[SimulatedOp]] = field(default=None, init=False,
                                              repr=False, compare=False)

    @property
    def ops(self) -> List[SimulatedOp]:
        """Every plan item's record, by index; built once, on first read."""
        if self._ops is None:
            self._ops = (_simulated_ops(*self.plan_run)
                         if self.plan_run is not None else [])
        return self._ops

    @ops.setter
    def ops(self, ops: List[SimulatedOp]) -> None:
        self._ops = ops

    def _records(self) -> Sequence[Optional[SimulatedOp]]:
        """:attr:`ops` once read or assigned; before that ``run_plan``'s
        placed records, where ``None`` stands for one settled gate."""
        if self._ops is None and self.plan_run is not None:
            return self.plan_run[0]
        return self.ops

    def comm_ops(self) -> List[SimulatedOp]:
        return [op for op in self._records()
                if op is not None and op.kind != "gate"]

    def num_scheduled_items(self) -> int:
        return sum(1 if op is None else op.num_items
                   for op in self._records())

    def node_utilisation(self) -> Dict[int, float]:
        """Busy fraction of each node's communication qubits."""
        return {node.index: self.resources.utilisation(node.index,
                                                       horizon=self.latency)
                for node in self.resources.network}

    def link_utilisation(self) -> Dict[Tuple[int, int], float]:
        """Fraction of time each link spent generating EPR pairs."""
        return self.trace.link_utilisation(self.latency)


@dataclass
class MonteCarloResult:
    """Seeded latency distribution over repeated stochastic executions."""

    #: The run's configuration with the **master** seed — the one integer
    #: the whole distribution reproduces from — not any trial's derived
    #: seed.  Per-trial seeds live in ``trial_seeds`` (and each trial's
    #: ``SimulationResult.seed``), so any single trial can be replayed
    #: through :func:`simulate_program` with ``replace(config, seed=...)``.
    config: SimulationConfig
    latencies: List[float]
    trial_seeds: List[int]
    epr_attempts: List[int]
    analytical_latency: Optional[float] = None
    #: Full result of the first trial (with trace) for inspection/rendering.
    sample_trial: Optional[SimulationResult] = None
    #: One registry aggregated over every trial (all engines wrote into it).
    metrics: Optional[MetricsRegistry] = None

    @property
    def distribution(self) -> LatencyDistribution:
        return LatencyDistribution(self.latencies)

    def summary(self) -> Dict[str, float]:
        data = self.distribution.summary()
        data["mean_epr_attempts"] = (sum(self.epr_attempts)
                                     / max(1, len(self.epr_attempts)))
        if self.analytical_latency is not None:
            data["analytical"] = self.analytical_latency
            data["slowdown"] = (data["mean"] / self.analytical_latency
                                if self.analytical_latency > 0 else 1.0)
        return data


class ExecutionEngine:
    """Executes one schedule plan on the modelled hardware."""

    def __init__(self, plan: SchedulePlan, network: QuantumNetwork,
                 config: Optional[SimulationConfig] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.plan = plan
        self.network = network
        self.config = config or SimulationConfig()
        #: The run's only source of randomness: every EPR attempt draws
        #: from it, so a trial reproduces from ``config.seed`` alone.
        self.rng = random.Random(self.config.seed)
        self.latency = network.latency
        #: Trial-invariant per-item profiles, cached on the plan and
        #: therefore shared across Monte-Carlo trials.
        self._profiles = plan.op_profiles(network)
        link_model = network.link_model
        #: Whether any link bounds concurrent EPR generations this run.
        self._capacity_constrained = (
            not self.config.ideal_links and link_model is not None
            and link_model.has_capacities)
        per_link = network.heterogeneous_links and not self.config.ideal_links
        self.epr = EPRProcess(network, p_success=self.config.p_epr,
                              retry_latency=self.config.retry_latency,
                              per_link=per_link)
        self.resources = CommResourceTracker(network)
        self.trace = TraceRecorder(enabled=self.config.record_trace)
        #: Caller-shared registry (Monte-Carlo aggregation), or this run's own.
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry(enabled=self.config.record_metrics))
        self._links: Dict[Tuple[int, int], SlotSchedule] = {}

    # ------------------------------------------------------------- event loop

    def run(self) -> SimulationResult:
        """Execute every plan item through the plan's event loop."""
        records, ready, ends = run_plan(self.plan, self.network,
                                        self._execute)
        makespan = max(ends, default=0.0)
        groups = self.plan.comm_groups(self.network)
        comm = [records[index] for index in groups.indices]
        # Gates make no EPR attempts and use no pairs: only comm ops count.
        total_attempts = total_pairs = 0
        for op in comm:
            total_attempts += op.epr_attempts
            total_pairs += op.epr_pairs
        metrics = self.metrics
        if metrics.enabled:
            self._flush_metrics(groups, comm, makespan, total_attempts)
        return SimulationResult(
            latency=makespan, trace=self.trace,
            resources=self.resources, mode=self.plan.mode,
            seed=self.config.seed,
            total_epr_attempts=total_attempts,
            total_epr_pairs=total_pairs,
            metrics=metrics, plan_run=(records, ready, ends))

    # ------------------------------------------------------------- metrics

    def _flush_metrics(self, groups: CommGroups, comm: List[SimulatedOp],
                       makespan: float, total_attempts: int) -> None:
        """Fold this run's comm ops into the registry, once per run.

        ``comm`` holds the records of ``groups.indices``, in that order.
        Everything the metrics need is already in those
        :class:`SimulatedOp` records and the plan's trial-invariant facts,
        so the per-op execution path carries no metrics code at all —
        registry lookups build sorted label keys and instrument calls are
        attribute dispatches, which is too slow per executed op (the
        overhead benchmark holds the instrumented engine within a few
        percent of the stripped one).  The fold visits only comm ops,
        through the groups the plan builds once
        (:meth:`SchedulePlan.comm_groups`): per-kind groups give the queue
        waits, per-node groups the comm-qubit occupancy (each comm op holds
        one slot per endpoint for its whole window), per-link groups and
        generation counts the link totals, and the pairs needed without
        retries are a plan constant.  Each group sums its ops' window
        lengths by position; a group that extends another continues that
        group's sum (:func:`_sum_segments`).  Groups list ops in index
        order, so each sum adds in the order of a walk over every op and
        the registry contents do not depend on the grouping.  The
        instruments each group feeds are resolved once per registry and
        plan (:meth:`_fold_handles`), so across a shared-registry
        Monte-Carlo run only the first trial pays the labelled lookups;
        counters are bumped through ``value`` and histograms through their
        sample lists, without a method call per write.
        """
        metrics = self.metrics
        fold = metrics.handles.get("sim")
        if (fold is None or fold[0] is not groups
                or (makespan > 0 and fold[2] is None)):
            fold = metrics.handles["sim"] = self._fold_handles(
                groups, makespan > 0)
        _, fixed, occupancy, waits, links = fold
        trials, latency, attempts_hist, attempts, retries = fixed
        trials.value += 1
        latency.append(makespan)
        attempts_hist.append(total_attempts)
        # Pairs each comm op needed at least once: attempts beyond are
        # retries.  Gates make no attempts, so the run total is the comm
        # ops' total.
        needed = (groups.needed_epr
                  if self.epr.per_link and not self.epr.deterministic
                  else groups.needed_prep)
        attempts.value += total_attempts
        retries.value += total_attempts - needed
        if makespan > 0:
            segments, nodes = occupancy
            sums = [0.0]
            for source, positions in segments:
                busy = sums[source]
                for position in positions:
                    op = comm[position]
                    busy += op.end - op.prep_start
                sums.append(busy)
            for sum_id, values, slots in nodes:
                values.append(sums[sum_id] / (makespan * slots))
        for positions, targets in waits:
            queue_waits = [comm[position].queue_wait
                           for position in positions]
            for values in targets:
                values.extend(queue_waits)
        segments, links = links
        sums = [0.0]
        for source, positions in segments:
            busy = sums[source]
            for position in positions:
                op = comm[position]
                busy += op.start - op.prep_start
            sums.append(busy)
        for sum_id, generations, generated, busy_time in links:
            generated.value += generations
            busy_time.value += sums[sum_id]

    def _fold_handles(self, groups: CommGroups, occupancy: bool) -> Tuple:
        """The instruments :meth:`_flush_metrics` feeds, per comm-op group.

        ``(groups, fixed, occupancy, waits, links)``: the run-wide
        instruments; the node sums' segments (:func:`_sum_segments`) and
        per network node its sum, occupancy samples and slot count
        (``None`` until a run has a positive makespan); per kind its comm
        ops, as positions in ``groups.indices``, and the sample lists their
        queue waits extend (the migration stalls too); the link sums'
        segments and per link its sum, generation count and counters.
        Instruments are created in the order the fold first writes them.
        """
        metrics = self.metrics
        fixed = (metrics.counter("sim.trials"),
                 metrics.histogram("sim.latency").values,
                 metrics.histogram("sim.epr_attempts").values,
                 metrics.counter("epr.attempts"),
                 metrics.counter("epr.retries"))
        nodes = None
        if occupancy:
            by_node = dict(groups.nodes)
            segments, sum_ids = _sum_segments(
                [by_node.get(node.index, ()) for node in self.network])
            nodes = (segments, tuple(
                (sum_id,
                 metrics.histogram("node.comm_occupancy",
                                   node=node.index).values,
                 node.num_comm_qubits)
                for sum_id, node in zip(sum_ids, self.network)))
        waits = [(positions, [metrics.histogram("comm.queue_wait",
                                                kind=kind).values])
                 for kind, positions in groups.kinds]
        for (kind, _), (_, targets) in zip(groups.kinds, waits):
            if kind == "migration":
                targets.append(metrics.histogram("migration.stall").values)
        segments, sum_ids = _sum_segments(
            [positions for _, _, positions in groups.links])
        links = (segments, tuple(
            (sum_id, generations,
             metrics.counter("link.epr_generations", link=f"{a}-{b}"),
             metrics.counter("link.busy_time", link=f"{a}-{b}"))
            for sum_id, ((a, b), generations, _)
            in zip(sum_ids, groups.links)))
        return groups, fixed, nodes, tuple(waits), links

    # ------------------------------------------------------------- execution

    def _execute(self, index: int, ready: float) -> SimulatedOp:
        profile = self._profiles[index]
        kind = profile.kind
        if kind == "gate":
            # A zero-duration gate, such as a barrier: it touches no
            # resource and starts as soon as it is ready, like every gate.
            return SimulatedOp(index, "gate", ready, ready + profile.duration,
                               (), ready)
        nodes = profile.nodes
        duration = profile.duration
        # One EPR generation per consumed pair: the block's hub<->remote
        # link, or the consecutive hops of a fused chain's teleport
        # itinerary — NOT the all-pairs closure of the chain's node set,
        # which would sample (and book) links the itinerary never uses.
        sample = self.epr.sample_pairs(self.rng, profile.prep_pairs)
        links = profile.links
        # When one physical link must host more concurrent generations than
        # it has capacity slots (a fused chain whose routed hops revisit a
        # link), the excess generations serialise into batches, stretching
        # the preparation window accordingly.  Each link batches against its
        # *own* capacity (its link-model spec).
        capped = []
        batches = 1
        if self._capacity_constrained:
            for (a, b), count in links:
                capacity = self.network.link_capacity(a, b)
                if capacity is not None:
                    capped.append((self._link_schedule(a, b, capacity),
                                   min(count, capacity)))
                    batches = max(batches, -(-count // capacity))
        prep = sample.duration * batches

        # EPR generation is data-independent, so its request is back-dated to
        # pipeline with predecessor computation whenever comm qubits (and,
        # if constrained, the links) were free early.
        prep_start, start, end = self.resources.reserve_joint(
            nodes, ready, duration, prep, label=profile.label, links=capped)
        for (a, b), _ in links:
            self.trace.record_link(a, b, prep_start, start)

        self._record_comm_trace(index, kind, nodes, prep_start, start, end,
                                sample.attempts)
        return SimulatedOp(index, kind, start, end, nodes, prep_start,
                           sample.attempts, profile.num_items,
                           profile.epr_pairs,
                           prep_start - max(0.0, ready - prep))

    def _link_schedule(self, node_a: int, node_b: int,
                       capacity: int) -> SlotSchedule:
        key = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        if key not in self._links:
            self._links[key] = SlotSchedule(capacity)
        return self._links[key]

    # ---------------------------------------------------------------- tracing

    def _record_comm_trace(self, index: int, kind: str,
                           nodes: Sequence[int], prep_start: float,
                           start: float, end: float, attempts: int) -> None:
        if not self.trace.enabled:
            return
        lat = self.latency
        item = self.plan.items[index]
        self.trace.record(prep_start, "epr-start", index, nodes,
                          detail=f"attempts={attempts}")
        self.trace.record(start, "epr-ready", index, nodes)
        self.trace.record(start, "op-start", index, nodes, detail=kind)
        if kind == "cat":
            self.trace.record(start + lat.t_cat_entangle, "classical-msg",
                              index, nodes, detail="cat-entangle outcome")
            self.trace.record(end, "classical-msg", index, nodes,
                              detail="cat-disentangle outcome")
        elif kind == "tp":
            self.trace.record(start + lat.t_teleport, "teleport", index,
                              nodes, detail="hub to remote node")
            self.trace.record(end, "teleport", index, nodes,
                              detail="hub returned home")
        elif kind == "migration":
            self.trace.record(end, "teleport", index, nodes,
                              detail=f"migrate q{item.qubit} to new home")
        else:  # tp-chain: hops interleaved with the block bodies
            t = start
            for hop, block in enumerate(item.blocks):
                t += lat.t_teleport
                self.trace.record(t, "teleport", index, nodes,
                                  detail=f"chain hop {hop + 1}")
                t += lat.body_latency(block.gates)
            self.trace.record(end, "teleport", index, nodes,
                              detail="hub returned home")
        self.trace.record(end, "op-end", index, nodes, detail=kind)


def _sum_segments(groups: Sequence[Tuple[int, ...]]
                  ) -> Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...],
                             List[int]]:
    """Plan the left-to-right sums of ``groups`` of ascending positions.

    Returns ``(segments, sum_ids)``: segment ``k`` continues sum
    ``source`` (sum 0 is ``0.0``) over its positions and yields sum
    ``k + 1``, and group ``g`` sums to sum ``sum_ids[g]``.
    A group whose leading positions are a whole other group continues that
    group's sum: it adds the same terms in the same order, so each sum is
    bit-identical to summing its group alone.  Node and link groups often
    nest like this on a line: in the QFT-16 line program of the
    observability benchmark, every node's and every link's comm ops start
    with those of the one before it.
    """
    order = sorted(range(len(groups)), key=lambda g: len(groups[g]))
    segments: List[Tuple[int, Tuple[int, ...]]] = []
    sum_ids = [0] * len(groups)
    for rank, g in enumerate(order):
        positions = groups[g]
        source = start = 0
        for done in order[:rank]:
            prior = groups[done]
            if start < len(prior) and positions[:len(prior)] == prior:
                source, start = sum_ids[done], len(prior)
        if start == len(positions):
            sum_ids[g] = source
        else:
            segments.append((source, positions[start:]))
            sum_ids[g] = len(segments)
    return tuple(segments), sum_ids


def _settled_gate(index: int, start: float, end: float) -> SimulatedOp:
    """The record of a gate :func:`run_plan` settled off the heap."""
    return SimulatedOp(index, "gate", start, end, (), start)


def _simulated_ops(records: List[Optional[SimulatedOp]], ready: List[float],
                   ends: List[float]) -> List[SimulatedOp]:
    """``run_plan``'s lists as one record per plan item, by index."""
    return [op if op is not None
            else _settled_gate(index, ready[index], ends[index])
            for index, op in enumerate(records)]


# ---------------------------------------------------------------------------
# Program-level entry points
# ---------------------------------------------------------------------------

def plan_for_program(program: CompiledProgram) -> SchedulePlan:
    """The plan the program's analytical schedule was computed from.

    One lookup over :attr:`~repro.core.pipeline.CompiledProgram.phases`
    (a static program is its one phase, with no boundary list) and the
    winning schedule's burst and overlap flags.  Plans are memoised on the
    underlying assignment, so the engine executes — and the static
    verifier (:mod:`repro.verify`) analyses — the *same* plan object the
    analytical scheduler priced, including whether its cross-phase
    dependencies are barrier edges or overlapped per-qubit edges.
    """
    schedule = program.schedule
    return plan_phased_schedule(
        program.phases, program.migrations,
        burst=schedule is not None and schedule.mode == "burst",
        overlap=schedule is not None and schedule.overlap)


def simulate_program(program: CompiledProgram,
                     config: Optional[SimulationConfig] = None) -> SimulationResult:
    """Execute one compiled program once on the modelled hardware.

    The schedule variant ("burst" or "plain") recorded by the analytical
    scheduler is replayed, so with the default deterministic config the
    result reproduces ``program.schedule.latency`` exactly.
    """
    config = config or SimulationConfig()
    engine = ExecutionEngine(plan_for_program(program), program.network,
                             config=config)
    return engine.run()


def _chunk_seeds(trial_seeds: List[int], workers: int) -> List[List[int]]:
    """Split the trial seeds into ``workers`` contiguous chunks.

    The split depends only on the counts (never on the host's core count or
    timing), so chunked results re-concatenate into exactly the sequential
    trial order for any worker count.
    """
    base, extra = divmod(len(trial_seeds), workers)
    chunks: List[List[int]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        chunks.append(trial_seeds[start:start + size])
        start += size
    return chunks


def _run_trial_chunk(payload) -> Tuple[List[float], List[int],
                                       MetricsRegistry,
                                       Optional[SimulationResult]]:
    """Execute one contiguous chunk of Monte-Carlo trials.

    Runs inside a worker process (module-level so it pickles); the first
    chunk also returns its first trial as the run's sample (with the trace,
    when enabled), mirroring what the sequential loop keeps.
    """
    plan, network, config, seeds, first_chunk = payload
    metrics = MetricsRegistry(enabled=config.record_metrics)
    quiet = replace(config, record_trace=False)
    latencies: List[float] = []
    attempts: List[int] = []
    sample: Optional[SimulationResult] = None
    for index, trial_seed in enumerate(seeds):
        is_sample = first_chunk and index == 0
        template = config if is_sample else quiet
        trial_config = replace(template, seed=trial_seed)
        engine = ExecutionEngine(plan, network, config=trial_config,
                                 metrics=metrics)
        result = engine.run()
        latencies.append(result.latency)
        attempts.append(result.total_epr_attempts)
        if is_sample:
            sample = result
    return latencies, attempts, metrics, sample


def run_monte_carlo(program: CompiledProgram,
                    config: SimulationConfig) -> MonteCarloResult:
    """Run ``config.trials`` seeded stochastic executions of one program.

    Trial seeds are derived from ``config.seed`` through a master generator,
    so the whole distribution is reproducible from one integer — the
    returned result's ``config`` keeps that master seed (see
    :class:`MonteCarloResult`).

    With ``config.workers > 1`` the trials run on a process pool: seeds are
    chunked deterministically, every worker executes its chunk with its own
    engines and :class:`~repro.obs.metrics.MetricsRegistry`, and the
    registries merge losslessly in chunk order.  Because each trial's
    randomness comes only from its own derived seed, latencies, attempts and
    merged metrics are identical to the sequential run for any worker count.
    """
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    if config.workers < 1:
        raise ValueError("workers must be >= 1")
    master = random.Random(config.seed)
    trial_seeds = [master.getrandbits(63) for _ in range(config.trials)]

    # The plan (items + dependency graph) is identical across trials and its
    # commutation analysis dominates planning cost, so build it once (each
    # worker process receives the finished plan, not the program to re-plan).
    plan = plan_for_program(program)

    workers = min(config.workers, config.trials)
    if workers > 1:
        payloads = [(plan, program.network, config, chunk, index == 0)
                    for index, chunk in enumerate(_chunk_seeds(trial_seeds,
                                                               workers))]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial_chunk, payloads))
        latencies = []
        attempts = []
        sample_trial: Optional[SimulationResult] = None
        metrics = MetricsRegistry(enabled=config.record_metrics)
        for chunk_latencies, chunk_attempts, chunk_metrics, sample in outcomes:
            latencies.extend(chunk_latencies)
            attempts.extend(chunk_attempts)
            metrics.merge(chunk_metrics)
            if sample is not None:
                sample_trial = sample
        if sample_trial is not None:
            # The sequential loop's sample shares the run-wide registry;
            # point the worker's sample at the merged aggregate likewise.
            sample_trial.metrics = metrics
    else:
        latencies, attempts, metrics, sample_trial = _run_trial_chunk(
            (plan, program.network, config, trial_seeds, True))

    analytical = (program.schedule.latency if program.schedule is not None
                  else None)
    return MonteCarloResult(config=config, latencies=latencies,
                            trial_seeds=trial_seeds, epr_attempts=attempts,
                            analytical_latency=analytical,
                            sample_trial=sample_trial, metrics=metrics)
