"""Discrete-event execution engine for compiled distributed programs.

The engine *executes* a compiled program's schedule plan on the modelled
hardware instead of estimating its latency analytically: the plan's event
loop places gates and communications, and the trace records EPR-generation,
teleportation and classical-message events;
communication qubits are occupied through the same
:class:`~repro.hardware.epr.CommResourceTracker` the analytical scheduler
uses, and EPR pairs are produced by a (possibly stochastic)
:class:`~repro.sim.epr_process.EPRProcess`.

Two properties anchor the design:

* **Deterministic equivalence** — the engine replays the exact plan
  (:func:`repro.core.scheduling.plan_phased_schedule` over the program's
  ``phase_view``: a static program is its one-phase case, so one lookup,
  :func:`plan_for_program`, serves every program) the analytical scheduler
  used through the same event loop (:func:`repro.core.scheduling.run_plan`),
  so placement decisions come in the same ``(ready time, item index)``
  order by construction.  Every plan carries the mapping of each item, so
  the engine needs the plan and the network only.  With ``p_epr = 1.0``
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
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.pipeline import CompiledProgram
from ..core.scheduling import SchedulePlan, plan_phased_schedule, run_plan
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

    A tuple record (one is built per plan item and trial): immutable,
    hashable and picklable, with no per-instance ``__dict__``.  Derive a
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
    """Outcome of executing one program once."""

    ops: List[SimulatedOp]
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

    def comm_ops(self) -> List[SimulatedOp]:
        return [op for op in self.ops if op.kind != "gate"]

    def num_scheduled_items(self) -> int:
        return sum(op.num_items for op in self.ops)

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
        ops = run_plan(self.plan, self._execute)
        makespan = max((op.end for op in ops), default=0.0)
        total_attempts = sum(op.epr_attempts for op in ops)
        metrics = self.metrics
        if metrics.enabled:
            self._flush_metrics(ops, makespan, total_attempts)
        return SimulationResult(
            ops=ops, latency=makespan, trace=self.trace,
            resources=self.resources, mode=self.plan.mode,
            seed=self.config.seed,
            total_epr_attempts=total_attempts,
            total_epr_pairs=sum(op.epr_pairs for op in ops),
            metrics=metrics)

    # ------------------------------------------------------------- metrics

    def _flush_metrics(self, ops: List[SimulatedOp], makespan: float,
                       total_attempts: int) -> None:
        """Fold this run's executed ops into the registry, once per run.

        Everything the metrics need is already in the :class:`SimulatedOp`
        records and the plan's trial-invariant facts, so the per-op
        execution path carries no metrics code at all — registry lookups
        build sorted label keys and instrument calls are attribute
        dispatches, which is too slow per executed op (the overhead
        benchmark holds the instrumented engine within a few percent of
        the stripped one).  The fold visits only comm ops, through the
        groups the plan builds once (:meth:`SchedulePlan.comm_groups`):
        per-kind index lists give the queue waits, per-node lists the
        comm-qubit occupancy (each comm op holds one slot per endpoint for
        its whole window), per-link lists and generation counts the link
        totals, and the pairs needed without retries are a plan constant.
        Groups list ops in index order, so each sum adds in the order of a
        walk over every op and the registry contents do not depend on the
        grouping.  Instrument handles are memoised on the registry itself,
        so across a shared-registry Monte-Carlo run only the first trial
        pays the labelled-lookup cost.
        """
        metrics = self.metrics
        handles = metrics.handles
        fixed = handles.get("sim")
        if fixed is None:
            fixed = handles["sim"] = (
                metrics.counter("sim.trials"),
                metrics.histogram("sim.latency"),
                metrics.histogram("sim.epr_attempts"),
                metrics.counter("epr.attempts"),
                metrics.counter("epr.retries"))
        trials, latency, attempts_hist, attempts, retries = fixed
        trials.inc()
        latency.observe(makespan)
        attempts_hist.observe(total_attempts)
        groups = self.plan.comm_groups(self.network)
        # Pairs each comm op needed at least once: attempts beyond are
        # retries.  Gates make no attempts, so the run total is the comm
        # ops' total.
        needed = (groups.needed_epr
                  if self.epr.per_link and not self.epr.deterministic
                  else groups.needed_prep)
        attempts.inc(total_attempts)
        retries.inc(total_attempts - needed)

        if makespan > 0:
            node_busy: Dict[int, float] = {}
            for node, indices in groups.nodes:
                busy = 0.0
                for index in indices:
                    op = ops[index]
                    busy += op.end - op.prep_start
                node_busy[node] = busy
            occ_handles = handles.get("occ")
            if occ_handles is None:
                occ_handles = handles["occ"] = {}
            for node in self.network:
                index = node.index
                occupancy = occ_handles.get(index)
                if occupancy is None:
                    occupancy = occ_handles[index] = (
                        metrics.histogram("node.comm_occupancy", node=index),
                        node.num_comm_qubits)
                occupancy[0].observe(
                    node_busy.get(index, 0.0) / (makespan * occupancy[1]))
        wait_handles = handles.get("qw")
        if wait_handles is None:
            wait_handles = handles["qw"] = {}
        stalls: List[float] = []
        for kind, indices in groups.kinds:
            queue_wait = wait_handles.get(kind)
            if queue_wait is None:
                queue_wait = wait_handles[kind] = metrics.histogram(
                    "comm.queue_wait", kind=kind)
            waits = [ops[index].queue_wait for index in indices]
            queue_wait.values.extend(waits)
            if kind == "migration":
                stalls = waits
        if stalls:
            metrics.histogram("migration.stall").values.extend(stalls)
        pair_handles = handles.get("links")
        if pair_handles is None:
            pair_handles = handles["links"] = {}
        for pair, generations, indices in groups.links:
            busy = 0.0
            for index in indices:
                op = ops[index]
                busy += op.start - op.prep_start
            link_handles = pair_handles.get(pair)
            if link_handles is None:
                link = f"{pair[0]}-{pair[1]}"
                link_handles = pair_handles[pair] = (
                    metrics.counter("link.epr_generations", link=link),
                    metrics.counter("link.busy_time", link=link))
            link_handles[0].inc(generations)
            link_handles[1].inc(busy)

    # ------------------------------------------------------------- execution

    def _execute(self, index: int, ready: float) -> SimulatedOp:
        profile = self._profiles[index]
        kind = profile.kind
        if kind == "gate":
            # Gates touch no resource: they start as soon as they are ready.
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


# ---------------------------------------------------------------------------
# Program-level entry points
# ---------------------------------------------------------------------------

def plan_for_program(program: CompiledProgram) -> SchedulePlan:
    """The plan the program's analytical schedule was computed from.

    One lookup over :attr:`~repro.core.pipeline.CompiledProgram.phase_view`
    (a static program is its one phase, with no boundary list) and the
    winning schedule's burst and overlap flags.  Plans are memoised on the
    underlying assignment, so the engine executes — and the static
    verifier (:mod:`repro.verify`) analyses — the *same* plan object the
    analytical scheduler priced, including whether its cross-phase
    dependencies are barrier edges or overlapped per-qubit edges.
    """
    schedule = program.schedule
    return plan_phased_schedule(
        program.phase_view, program.migrations,
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
