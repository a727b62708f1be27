"""Unit tests for the discrete-event execution engine."""

import hashlib
import heapq
import random

import pytest

from repro import AutoCommConfig, compile_autocomm
from repro.circuits import qft_circuit
from repro.circuits.suite import BenchmarkSpec
from repro.hardware import (DEFAULT_LATENCY, LatencyModel, LinkModel,
                            LinkSpec, uniform_network)
from repro.hardware.topology import apply_topology
from repro.ir import Circuit, decompose_to_cx
from repro.partition import QubitMapping
from repro.obs import MetricsRegistry
from repro.sim import (
    MonteCarloResult,
    SimulationConfig,
    run_monte_carlo,
    simulate_program,
)
from repro.core.scheduling import run_plan
from repro.sim import engine as engine_module
from repro.sim.engine import (ExecutionEngine, _simulated_ops, _sum_segments,
                              plan_for_program)


def block_mapping_for(num_qubits, num_nodes):
    per = -(-num_qubits // num_nodes)
    return QubitMapping({q: q // per for q in range(num_qubits)})


@pytest.fixture
def qft_program():
    network = uniform_network(2, 4)
    return compile_autocomm(qft_circuit(8), network)


class TestDeterministicExecution:
    def test_empty_program(self):
        network = uniform_network(2, 2)
        program = compile_autocomm(Circuit(4), network,
                                   mapping=block_mapping_for(4, 2))
        result = simulate_program(program)
        assert result.latency == 0.0
        assert result.ops == []

    def test_single_remote_gate_latency(self):
        network = uniform_network(2, 2)
        program = compile_autocomm(Circuit(4).cx(0, 2), network,
                                   mapping=block_mapping_for(4, 2))
        result = simulate_program(program)
        expected = DEFAULT_LATENCY.t_epr + DEFAULT_LATENCY.cat_comm_latency(1)
        assert result.latency == pytest.approx(expected)
        (op,) = result.comm_ops()
        assert op.prep_start == 0.0
        assert op.start == pytest.approx(DEFAULT_LATENCY.t_epr)

    def test_matches_analytical_latency(self, qft_program):
        result = simulate_program(qft_program)
        assert result.latency == pytest.approx(qft_program.schedule.latency)
        assert result.mode == qft_program.schedule.mode

    def test_all_items_covered(self, qft_program):
        result = simulate_program(qft_program)
        assert result.num_scheduled_items() \
            == len(qft_program.assignment.items)

    def test_comm_qubit_capacity_respected(self):
        network = uniform_network(3, 4)
        program = compile_autocomm(decompose_to_cx(qft_circuit(12)), network,
                                   mapping=block_mapping_for(12, 3))
        result = simulate_program(program)
        comm = result.comm_ops()
        for t in [i * result.latency / 200 for i in range(200)]:
            per_node = {n: 0 for n in range(3)}
            for op in comm:
                if op.prep_start <= t < op.end:
                    for node in op.nodes:
                        per_node[node] += 1
            assert all(count <= 2 for count in per_node.values())

    def test_node_utilisation_bounded(self, qft_program):
        result = simulate_program(qft_program)
        for value in result.node_utilisation().values():
            assert 0.0 <= value <= 1.0

    @pytest.mark.no_autoverify  # deliberately corrupts the shared program
    def test_assignment_required(self, qft_program):
        qft_program.assignment = None
        with pytest.raises(ValueError):
            simulate_program(qft_program)


class TestTrace:
    def test_comm_ops_traced(self, qft_program):
        result = simulate_program(qft_program)
        starts = result.trace.events_of("op-start")
        assert len(starts) == len(result.comm_ops())
        assert result.trace.events_of("epr-start")
        # Every protocol emits at least one classical message or teleport.
        assert (result.trace.events_of("classical-msg")
                or result.trace.events_of("teleport"))

    def test_trace_timeline_sorted(self, qft_program):
        result = simulate_program(qft_program)
        times = [event.time for event in result.trace.timeline()]
        assert times == sorted(times)

    def test_trace_can_be_disabled(self, qft_program):
        result = simulate_program(qft_program,
                                  SimulationConfig(record_trace=False))
        assert result.trace.num_events() == 0
        assert result.latency > 0

    def test_link_utilisation_recorded(self, qft_program):
        result = simulate_program(qft_program)
        utilisation = result.link_utilisation()
        assert (0, 1) in utilisation
        assert 0.0 < utilisation[(0, 1)] <= 1.0


class TestStochasticExecution:
    def test_latency_never_below_deterministic(self, qft_program):
        deterministic = simulate_program(qft_program)
        for seed in range(5):
            noisy = simulate_program(
                qft_program, SimulationConfig(p_epr=0.5, seed=seed))
            assert noisy.latency >= deterministic.latency - 1e-9

    def test_same_seed_same_execution(self, qft_program):
        config = SimulationConfig(p_epr=0.4, seed=99)
        a = simulate_program(qft_program, config)
        b = simulate_program(qft_program, config)
        assert a.latency == b.latency
        assert a.ops == b.ops

    def test_different_seeds_differ(self, qft_program):
        latencies = {simulate_program(
            qft_program, SimulationConfig(p_epr=0.3, seed=seed)).latency
            for seed in range(8)}
        assert len(latencies) > 1

    def test_epr_attempts_accumulate(self, qft_program):
        noisy = simulate_program(qft_program,
                                 SimulationConfig(p_epr=0.3, seed=1))
        assert noisy.total_epr_attempts > len(noisy.comm_ops())


class TestLinkContention:
    def test_capacity_one_serialises_parallel_preps(self):
        circuit = Circuit(8).cx(0, 4).cx(1, 5)
        mapping = QubitMapping({q: q // 4 for q in range(8)})
        base = simulate_program(compile_autocomm(
            circuit, uniform_network(2, 4), mapping=mapping))
        capped = simulate_program(compile_autocomm(
            circuit, _capped(uniform_network(2, 4), "all-to-all", 1),
            mapping=mapping))
        assert capped.latency > base.latency
        preps = sorted((op.prep_start, op.start) for op in capped.comm_ops())
        # Second prep may only begin once the first has finished.
        assert preps[1][0] >= preps[0][1] - 1e-9

    @pytest.mark.parametrize("family,qubits,nodes,topology,remap,capacity,"
                             "seeds,expected", [
        pytest.param("QFT", 30, 4, "line", False, 1, range(3), [
            (8342.7, "162807639e6b2989"),
            (7710.600000000002, "1b86d7b0941cbf05"),
            (8077.900000000002, "4785c8badbd6c58a")], id="qft30-line-cap1"),
        pytest.param("QAOA", 30, 4, "ring", False, 2, range(3), [
            (305.70000000000005, "a073de3140cdab2d"),
            (242.10000000000002, "c06fb2cd81e66186"),
            (290.50000000000006, "a543a54527d88cb7")], id="qaoa30-ring-cap2"),
        pytest.param("QFT", 30, 4, None, False, None, range(3), [
            (3939.8999999999983, "e668b8bde198e48f"),
            (3846.3999999999983, "e089cd5bc215db96"),
            (4017.199999999999, "c8fe8e20f0113601")], id="qft30"),
        pytest.param("UCCSD", 8, 4, None, False, None, range(3), [
            (25683.099999999762, "15b0c7208b9ff4cb"),
            (26185.999999999745, "e04ce0c44fd8461e"),
            (26487.099999999737, "915f2df95438262f")], id="uccsd8"),
        pytest.param("UCCSD", 8, 4, None, False, None,
                     [2 ** 32, 2 ** 40 + 12345, 6917529027641081857], [
            (25478.79999999975, "2e7ef746b557845d"),
            (25355.499999999705, "f965def08f006da7"),
            (25586.19999999975, "1dcd034cc4b10ae5")],
            id="uccsd8-wide-seeds"),
        pytest.param("QAOA", 100, 10, "line", True, None, range(3), [
            (1196.4999999999995, "0e4ffd64fde7434e"),
            (1155.1999999999996, "5bd6b411732636b9"),
            (982.5999999999997, "139406ed321f3e5c")],
            id="qaoa100-line-remap-overlap"),
    ])
    def test_seeded_trials_pinned(self, family, qubits, nodes, topology,
                                  remap, capacity, seeds, expected):
        # Pinned per-seed digests (latency, every op's window and EPR
        # counts, every comm-qubit reservation) of seeded trials: the
        # link-capacity window search (capacity 2 on the ring asks for two
        # concurrent slots of one link), plain all-to-all programs, and a
        # phased remap+overlap program whose migrations share the loop.
        # Monte-Carlo trial seeds are 63-bit, so one case pins seeds that
        # need more than one 32-bit word of Mersenne-Twister key.
        circuit, network = BenchmarkSpec(family, qubits, nodes).build()
        if capacity is not None:
            network = _capped(network, topology, capacity)
        elif topology is not None:
            network = apply_topology(network, topology)
        config = (AutoCommConfig(remap="bursts", overlap=True) if remap
                  else None)
        program = compile_autocomm(circuit, network, config=config,
                                   cache=False)
        assert [_trial_digest(simulate_program(program, SimulationConfig(
            p_epr=0.5, seed=seed, record_trace=False)))
            for seed in seeds] == expected


def _capped(network, topology, capacity):
    """``network`` on ``topology`` with every link bounded to ``capacity``."""
    model = LinkModel.uniform_model(network.latency.t_epr, capacity=capacity)
    return apply_topology(network, topology, link_model=model)


def _trial_digest(result):
    """``(latency, short hash of every op record and reservation)``."""
    ops = [(op.index, op.kind, op.start, op.end, op.prep_start,
            op.queue_wait, op.epr_attempts, op.epr_pairs)
           for op in result.ops]
    reservations = [(r.node, r.slot, r.start, r.end, r.label)
                    for r in result.resources.reservations]
    digest = hashlib.sha256(repr((result.latency, ops, reservations))
                            .encode()).hexdigest()[:16]
    return result.latency, digest


def _reference_fold(registry, engine, result):
    """The metrics fold as one walk over every op record, in index order.

    The engine folds through per-plan comm-op groups instead; every sum
    must add in this walk's order, so the registries must match exactly.
    """
    ops, total = result.ops, result.total_epr_attempts
    profiles = engine.plan.op_profiles(engine.network)
    per_link = engine.epr.per_link and not engine.epr.deterministic
    registry.counter("sim.trials").inc()
    registry.histogram("sim.latency").observe(result.latency)
    registry.histogram("sim.epr_attempts").observe(total)
    needed = 0
    node_busy = {}
    link_totals = {}
    for op in ops:
        if op.kind == "gate":
            continue
        registry.histogram("comm.queue_wait", kind=op.kind).observe(
            op.queue_wait)
        if op.kind == "migration":
            registry.histogram("migration.stall").observe(op.queue_wait)
        profile = profiles[op.index]
        needed += (op.epr_pairs if per_link
                   else len(profile.prep_pairs)) or 1
        for node in op.nodes:
            node_busy[node] = node_busy.get(node, 0.0) + (op.end
                                                          - op.prep_start)
        for pair, count in profile.links:
            totals = link_totals.setdefault(pair, [0, 0.0])
            totals[0] += count
            totals[1] += op.start - op.prep_start
    registry.counter("epr.attempts").inc(total)
    registry.counter("epr.retries").inc(total - needed)
    if result.latency > 0:
        for node in engine.network:
            registry.histogram("node.comm_occupancy", node=node.index).observe(
                node_busy.get(node.index, 0.0)
                / (result.latency * node.num_comm_qubits))
    for (a, b), (generations, busy) in link_totals.items():
        registry.counter("link.epr_generations", link=f"{a}-{b}").inc(
            generations)
        registry.counter("link.busy_time", link=f"{a}-{b}").inc(busy)


def _registry_contents(registry):
    """Every counter value and every histogram's samples, in order."""
    return ({key: c.value for key, c in registry._counters.items()},
            {key: list(h.values) for key, h in registry._histograms.items()})


def _lossy_line(network):
    """``network`` on a line whose link 1-2 is slow, lossy and capped."""
    t_epr = network.latency.t_epr
    model = LinkModel(LinkSpec(t_epr=t_epr), {
        (1, 2): LinkSpec(t_epr=2 * t_epr, p_epr=0.7, capacity=1)})
    return apply_topology(network, "line", link_model=model)


class TestMetricsFold:
    @pytest.mark.parametrize("p_epr", [0.5, 1.0])
    @pytest.mark.parametrize("topology,remap", [
        ("all-to-all", False), ("line", False), ("lossy-line", False),
        ("line", True)])
    def test_grouped_fold_matches_per_op_walk(self, topology, remap, p_epr):
        network = uniform_network(4, 3)
        if topology == "lossy-line":
            network = _lossy_line(network)
        elif topology == "line":
            network = apply_topology(network, "line")
        config = (AutoCommConfig(remap="bursts", phase_blocks=3,
                                 overlap=True) if remap else None)
        program = compile_autocomm(qft_circuit(12), network, config=config,
                                   cache=False)
        plan = plan_for_program(program)
        kinds = dict(plan.comm_groups(program.network).kinds)
        assert ("migration" in kinds) == remap
        actual, expected = MetricsRegistry(), MetricsRegistry()
        for seed in range(4):
            engine = ExecutionEngine(plan, program.network, metrics=actual,
                                     config=SimulationConfig(
                                         p_epr=p_epr, seed=seed,
                                         record_trace=False))
            _reference_fold(expected, engine, engine.run())
        assert _registry_contents(actual) == _registry_contents(expected)
        assert actual.as_dict() == expected.as_dict()


class TestSegmentSums:
    """Groups that extend another group continue its sum, bit-exactly."""

    @staticmethod
    def _alone(terms, positions, total=0.0):
        for position in positions:
            total += terms[position]
        return total

    @pytest.mark.parametrize("seed", range(4))
    def test_every_group_sums_as_if_alone(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            size = rng.randint(0, 12)
            terms = [rng.choice((rng.uniform(0, 100), 1 / 3, 0.1, 0.0))
                     for _ in range(size)]
            groups = []
            for _ in range(rng.randint(1, 6)):
                if groups and rng.random() < 0.5:
                    # Extend (or repeat) an earlier group, as node and
                    # link groups nest on a line.
                    base = rng.choice(groups)
                    tail = [p for p in range(size)
                            if not base or p > base[-1]]
                    group = base + tuple(sorted(rng.sample(
                        tail, rng.randint(0, len(tail)))))
                else:
                    group = tuple(sorted(rng.sample(
                        range(size), rng.randint(0, size))))
                groups.append(group)
            segments, sum_ids = _sum_segments(groups)
            sums = [0.0]
            for source, positions in segments:
                sums.append(self._alone(terms, positions, sums[source]))
            assert [sums[i] for i in sum_ids] == [
                self._alone(terms, group) for group in groups]

    def test_nested_groups_add_each_term_once(self):
        segments, sum_ids = _sum_segments([(0, 1, 2, 3), (0, 1),
                                           (0, 1, 2, 3), ()])
        assert segments == ((0, (0, 1)), (1, (2, 3)))
        assert sum_ids == [2, 1, 2, 0]


class TestZeroDurationGates:
    """With ``t_1q=0`` single-qubit gates end as they start, so their
    successors become ready at the instant the gate was placed."""

    @pytest.fixture
    def program(self):
        network = uniform_network(3, 4, latency=LatencyModel(t_1q=0.0))
        return compile_autocomm(qft_circuit(12), network)

    def test_replay_matches_analytical_op_by_op(self, program):
        result = simulate_program(program)
        assert result.latency == program.schedule.latency
        assert [(op.start, op.end) for op in result.ops] == [
            (op.start, op.end) for op in program.schedule.ops]
        assert any(op.kind == "gate" and op.start == op.end
                   for op in result.ops)

    def test_stochastic_trials_pinned(self, program):
        assert [simulate_program(program, SimulationConfig(
            p_epr=0.5, seed=seed)).latency for seed in range(3)] == [
            298.0, 248.0, 262.0]


class TestBarrierPlan:
    """Barriers are zero-duration plan items: successors they release are
    ready at the instant the barrier was placed, the one ordering tie no
    benchmark program has."""

    @pytest.mark.parametrize("remap,expected", [
        pytest.param(False, [
            (1126.3000000000002, "6d884bef75236e35"),
            (833.1, "f242f4f2baa5fc50"),
            (1102.8999999999999, "6a7d3c99b7873132")], id="line"),
        pytest.param(True, [
            (1154.6999999999994, "0b63b76b387cea07"),
            (1001.7999999999998, "b00b4a8845b80e2a"),
            (1061.2999999999995, "e4bcba289e347367")],
            id="line-remap-overlap"),
    ])
    def test_seeded_trials_pinned(self, barrier_circuit, remap, expected):
        network = apply_topology(uniform_network(4, 3), "line")
        config = (AutoCommConfig(remap="bursts", overlap=True) if remap
                  else None)
        program = compile_autocomm(barrier_circuit, network, config=config,
                                   cache=False)
        assert any(op.kind == "gate" and op.start == op.end
                   for op in program.schedule.ops)
        assert [_trial_digest(simulate_program(program, SimulationConfig(
            p_epr=0.5, seed=seed, record_trace=False)))
            for seed in range(3)] == expected


def _full_walk(plan, place):
    """Every plan item through the heap and ``place``, in ``(ready, index)``
    order: the reference walk ``run_plan`` must reproduce."""
    succs = plan.successors()
    indegree = [len(plist) for plist in plan.preds]
    ready_time = [0.0] * len(indegree)
    placed = [None] * len(indegree)
    heap = [(0.0, index) for index, degree in enumerate(indegree)
            if degree == 0]
    while heap:
        ready, index = heapq.heappop(heap)
        op = placed[index] = place(index, ready)
        for succ in succs[index]:
            ready_time[succ] = max(ready_time[succ], op.end)
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (ready_time[succ], succ))
    return placed


class TestRunPlan:
    @pytest.fixture(params=["qft", "uccsd", "barrier"])
    def program(self, request, barrier_circuit):
        if request.param == "barrier":
            return compile_autocomm(
                barrier_circuit, apply_topology(uniform_network(4, 3), "line"),
                config=AutoCommConfig(remap="bursts", overlap=True),
                cache=False)
        family, qubits, nodes = {"qft": ("QFT", 30, 4),
                                 "uccsd": ("UCCSD", 8, 4)}[request.param]
        circuit, network = BenchmarkSpec(family, qubits, nodes).build()
        return compile_autocomm(circuit, network, cache=False)

    @pytest.mark.parametrize("p_epr", [0.5, 1.0])
    def test_place_sees_only_booking_and_zero_duration_items(self, program,
                                                             p_epr):
        plan, network = plan_for_program(program), program.network
        profiles = plan.op_profiles(network)
        heaped = [index for index, profile in enumerate(profiles)
                  if profile.kind != "gate" or profile.duration == 0]
        assert len(heaped) < len(profiles)

        def engine():
            return ExecutionEngine(plan, network, SimulationConfig(
                p_epr=p_epr, seed=7, record_trace=False))

        calls, walk_calls = [], []

        def counting(place, log):
            def wrapped(index, ready):
                log.append(index)
                return place(index, ready)
            return wrapped

        ops = _simulated_ops(*run_plan(
            plan, network, counting(engine()._execute, calls)))
        full = _full_walk(plan, counting(engine()._execute, walk_calls))
        assert sorted(calls) == heaped
        # The same items reach ``place`` in the same order, so every EPR
        # attempt draws the same number from the stream.
        booking = set(heaped)
        assert calls == [index for index in walk_calls if index in booking]
        assert ops == full


class TestLazyRecords:
    """A trial builds the records of the gates ``run_plan`` settles only
    when its ``ops`` are read."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        settled_gate = engine_module._settled_gate

        def counting(index, start, end):
            built.append(index)
            return settled_gate(index, start, end)
        monkeypatch.setattr(engine_module, "_settled_gate", counting)
        return built

    def test_monte_carlo_builds_gate_records_for_the_sample_only(
            self, qft_program, built):
        result = run_monte_carlo(qft_program, SimulationConfig(
            p_epr=0.5, trials=6, seed=4))
        assert built == []
        settle = plan_for_program(qft_program).settle_durations(
            qft_program.network)
        settled = [index for index, duration in enumerate(settle) if duration]
        assert settled
        ops = result.sample_trial.ops
        assert built == settled
        assert [op.index for op in ops] == list(range(len(settle)))

    def test_ops_read_twice_are_equal(self, qft_program, built):
        result = simulate_program(qft_program, SimulationConfig(
            p_epr=0.5, seed=3))
        first = result.ops
        assert result.ops == first
        assert result.ops is first
        assert len(built) == len(set(built))

    def test_totals_match_the_records(self, qft_program):
        result = simulate_program(qft_program, SimulationConfig(
            p_epr=0.5, seed=8))
        latency = result.latency
        attempts = result.total_epr_attempts
        pairs = result.total_epr_pairs
        ops = result.ops
        assert latency == max(op.end for op in ops)
        assert attempts == sum(op.epr_attempts for op in ops)
        assert pairs == sum(op.epr_pairs for op in ops)

    def test_counts_build_no_gate_records(self, qft_program, built):
        result = simulate_program(qft_program, SimulationConfig(
            p_epr=0.5, seed=5))
        items = result.num_scheduled_items()
        comm = result.comm_ops()
        assert built == []
        ops = result.ops
        assert built
        assert items == sum(op.num_items for op in ops)
        assert comm == [op for op in ops if op.kind != "gate"]
        assert comm and len(comm) < len(ops)

    def test_assigned_ops_take_precedence(self, qft_program):
        result = simulate_program(qft_program, SimulationConfig(seed=5))
        kept = result.comm_ops()[:1]
        result.ops = kept
        assert result.comm_ops() == kept
        assert result.num_scheduled_items() == kept[0].num_items


class TestMonteCarlo:
    def test_summary_and_reproducibility(self, qft_program):
        config = SimulationConfig(p_epr=0.5, trials=12, seed=21)
        first = run_monte_carlo(qft_program, config)
        second = run_monte_carlo(qft_program, config)
        assert isinstance(first, MonteCarloResult)
        assert first.latencies == second.latencies
        summary = first.summary()
        assert summary["trials"] == 12
        assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["max"]
        assert summary["analytical"] == pytest.approx(
            qft_program.schedule.latency)
        assert summary["slowdown"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_mean_matches_the_registry(self, qft_program, workers):
        # Both summaries used to sum in their own order (sorted vs. trial
        # order) and differed in the last bit at this seed.
        result = run_monte_carlo(qft_program, SimulationConfig(
            p_epr=0.5, trials=40, seed=8, workers=workers))
        latency = result.metrics.as_dict()["histograms"]["sim.latency"]
        assert result.summary()["mean"] == latency["mean"]

    def test_deterministic_trials_collapse(self, qft_program):
        result = run_monte_carlo(qft_program,
                                 SimulationConfig(p_epr=1.0, trials=3, seed=0))
        assert len(set(result.latencies)) == 1
        assert result.latencies[0] == pytest.approx(
            qft_program.schedule.latency)

    def test_sample_trial_carries_trace(self, qft_program):
        result = run_monte_carlo(qft_program,
                                 SimulationConfig(p_epr=0.5, trials=4, seed=3))
        assert result.sample_trial is not None
        assert result.sample_trial.trace.num_events() > 0

    def test_invalid_trials_rejected(self, qft_program):
        with pytest.raises(ValueError):
            run_monte_carlo(qft_program,
                            SimulationConfig(trials=0))


class TestTrialReplay:
    @pytest.fixture(scope="class")
    def program(self):
        circuit = decompose_to_cx(qft_circuit(12))
        return compile_autocomm(circuit, uniform_network(3, 4))

    def test_single_trial_reproduces_from_recorded_seed(self, program):
        config = SimulationConfig(p_epr=0.5, trials=3, seed=9,
                                  record_trace=False)
        monte_carlo = run_monte_carlo(program, config)
        for trial, trial_seed in enumerate(monte_carlo.trial_seeds):
            replay = simulate_program(program, SimulationConfig(
                p_epr=0.5, seed=trial_seed, record_trace=False))
            assert replay.latency == monte_carlo.latencies[trial]

    def test_deterministic_replay_unaffected(self, program):
        result = simulate_program(program)
        assert result.latency == pytest.approx(program.schedule.latency)

    @pytest.mark.parametrize("p_epr", [0.25, 0.5])
    def test_trial_is_a_function_of_its_seed(self, program, p_epr):
        def trial(seed):
            result = simulate_program(program, SimulationConfig(
                p_epr=p_epr, seed=seed, record_trace=False))
            return result.latency, [(op.epr_attempts, op.epr_pairs)
                                    for op in result.ops]

        seed = 2 ** 40 + 3
        latency, counts = trial(seed)
        assert trial(seed) == (latency, counts)
        assert trial(seed + 1) != (latency, counts)
        # Every pair takes at least one attempt, and some pair retried.
        assert all(attempts >= pairs for attempts, pairs in counts)
        assert any(attempts > pairs for attempts, pairs in counts)


class TestChainLinkBooking:
    """tp-chain ops book and trace only the itinerary's (routed) links."""

    @staticmethod
    def _chain_plan(remote_nodes, hub_node=0):
        from repro.comm import CommBlock, CommScheme
        from repro.core import FusedTPChain, SchedulePlan

        blocks = []
        for remote in remote_nodes:
            block = CommBlock(hub_qubit=0, hub_node=hub_node,
                              remote_node=remote)
            block.scheme = CommScheme.TP
            blocks.append(block)
        chain = FusedTPChain(blocks=blocks)
        return SchedulePlan(items=[chain], preds=[[]], num_fused_chains=1,
                            burst=True, item_mappings=[QubitMapping({0: 0})],
                            item_phases=[0])

    def test_only_itinerary_pairs_traced(self):
        from repro.sim.engine import ExecutionEngine

        network = uniform_network(4, 2)
        plan = self._chain_plan([1, 3, 2])
        engine = ExecutionEngine(plan, network)
        result = engine.run()
        # Itinerary 0 -> 1 -> 3 -> 2 -> 0; the unused pairs (0, 3) and
        # (1, 2) of the chain's node set must not appear in the link trace.
        assert set(result.trace.link_busy) \
            == {(0, 1), (1, 3), (2, 3), (0, 2)}
        assert result.total_epr_pairs == 4

    def test_routed_chain_traces_physical_links(self):
        from repro.hardware import apply_topology
        from repro.sim.engine import ExecutionEngine

        network = apply_topology(uniform_network(4, 2), "line")
        plan = self._chain_plan([1, 3, 2])
        engine = ExecutionEngine(plan, network)
        result = engine.run()
        # Every itinerary hop expands to the physical links of its route;
        # on a line those are exactly the three adjacent links.
        assert set(result.trace.link_busy) == {(0, 1), (1, 2), (2, 3)}
        # 0-1 (1 hop) + 1-3 (2) + 3-2 (1) + 2-0 (2) = 6 physical pairs.
        assert result.total_epr_pairs == 6

    def test_capacity_one_serialises_shared_link_batches(self):
        from repro.hardware import apply_topology
        from repro.sim.engine import ExecutionEngine

        plan = self._chain_plan([1, 3, 2])
        free = ExecutionEngine(
            plan, apply_topology(uniform_network(4, 2), "line")).run()
        capped = ExecutionEngine(
            plan, _capped(uniform_network(4, 2), "line", 1)).run()
        # Links (0, 1) and (1, 2) each host two concurrent generations;
        # with capacity 1 they serialise into two batches.
        assert capped.latency > free.latency
        (op_free,) = free.comm_ops()
        (op_capped,) = capped.comm_ops()
        assert (op_capped.start - op_capped.prep_start) == pytest.approx(
            2 * (op_free.start - op_free.prep_start))

    def test_blockwise_op_books_route_links(self):
        from repro.hardware import apply_topology

        network = apply_topology(uniform_network(4, 3), "line")
        circuit = Circuit(12).cx(0, 11)  # node 0 <-> node 3, 3 hops
        mapping = QubitMapping({q: q // 3 for q in range(12)})
        program = compile_autocomm(circuit, network, mapping=mapping)
        result = simulate_program(program)
        assert set(result.trace.link_busy) == {(0, 1), (1, 2), (2, 3)}
        assert result.total_epr_pairs == 3
