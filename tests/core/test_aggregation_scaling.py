"""Near-linear aggregation: exact verdicts, bounded work, seeded regressions."""

import itertools
import math
import random

import pytest

from repro import compile_autocomm
from repro.circuits import qft_circuit
from repro.circuits.suite import BenchmarkSpec
from repro.core import aggregate_communications, aggregate_communications_reference
from repro.core.aggregation import CommAggregator
from repro.hardware import CommResourceTracker, SlotSchedule, uniform_network
from repro.ir import Circuit, Gate, decompose_to_cx
from repro.ir.commutation import (GATE_REGISTRY, GateFrontier,
                                  _matrix_commutes, clear_commutation_cache,
                                  commutes, pauli_axes)
from repro.obs import Tracer
from repro.partition import oee_partition, round_robin_mapping
from repro.sim import SimulationConfig, run_monte_carlo, simulate_program

_ANGLES = (0.3, 2 * math.pi) + tuple(
    math.pi / 2 ** k for k in (1, 2, 5, 10, 17, 18, 19, 20, 29, 30, 31, 60, 99))


def _instances(name):
    spec = GATE_REGISTRY[name]
    if spec.num_params == 0:
        return [()]
    if spec.num_params == 1:
        return [(a,) for a in (_ANGLES if name in ("rz", "p") else (0.3, 1.9))]
    return [(0.3, 0.7, -1.1)]


_SINGLES = sorted(n for n, s in GATE_REGISTRY.items()
                  if s.unitary is not None and s.num_qubits == 1)
_MULTIS = sorted(n for n, s in GATE_REGISTRY.items()
                 if s.unitary is not None and s.num_qubits >= 2)


class TestCheapKey:
    def test_single_vs_multi_matches_matrix_check(self):
        clear_commutation_cache()
        for multi_name in _MULTIS:
            arity = GATE_REGISTRY[multi_name].num_qubits
            layouts = [tuple(range(arity)), tuple(reversed(range(arity)))]
            for multi_params in _instances(multi_name):
                for single_name in _SINGLES:
                    for single_params in _instances(single_name):
                        for qubits in layouts:
                            multi = Gate(multi_name, qubits, multi_params)
                            for q in qubits:
                                single = Gate(single_name, (q,), single_params)
                                assert commutes(single, multi) is \
                                    _matrix_commutes(single, multi)
                                assert commutes(multi, single) is \
                                    _matrix_commutes(multi, single)


class TestPauliAxes:
    def test_axis_matched_pairs_commute_exactly(self):
        """The frontier's skip rule: matching axes on every shared qubit."""
        gates = []
        for name, spec in GATE_REGISTRY.items():
            if spec.unitary is None:
                continue
            params = (0.3, 0.7, -1.1)[:spec.num_params]
            n = spec.num_qubits
            for qubits in ([(0,), (1,), (2,)] if n == 1 else
                           [(0, 1), (1, 0), (1, 2), (2, 0)] if n == 2 else
                           [(0, 1, 2), (2, 1, 0), (1, 2, 0)]):
                gates.append(Gate(name, qubits, params))
        checked = 0
        for a in gates:
            for b in gates:
                shared = set(a.qubits) & set(b.qubits)
                if not shared:
                    continue
                axes_a = dict(zip(a.qubits, pauli_axes(a)))
                axes_b = dict(zip(b.qubits, pauli_axes(b)))
                if all(axes_a[q] is not None and axes_a[q] == axes_b[q]
                       for q in shared):
                    checked += 1
                    assert _matrix_commutes(a, b), (a, b)
                    assert commutes(a, b), (a, b)
        assert checked > 100


def _random_gate(rng, names, num_qubits, angles):
    spec = GATE_REGISTRY[names[rng.randrange(len(names))]]
    qubits = tuple(rng.sample(range(num_qubits), spec.num_qubits))
    params = tuple(rng.choice(angles) for _ in range(spec.num_params))
    return Gate(spec.name, qubits, params)


class TestGateFrontier:
    def test_matches_pairwise_checks(self):
        """Bucketing and one-query-per-equivalent-gate change no verdict."""
        names = sorted(n for n, s in GATE_REGISTRY.items() if s.num_qubits)
        angles = (0.3, math.pi / 2, math.pi / 2 ** 40, 2 * math.pi)
        rng = random.Random(5)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            num_qubits = rng.randint(3, 6)
            filed = [_random_gate(rng, names, num_qubits, angles)
                     for _ in range(rng.randint(1, 6))]
            frontier = GateFrontier()
            for gate in filed:
                frontier.add(gate)
            for _ in range(5):
                query = _random_gate(rng, names, num_qubits, angles)
                expected = all(commutes(query, other) for other in filed
                               if set(query.qubits) & set(other.qubits))
                assert frontier.commutes(query) is expected, (query, filed)
                verdicts[expected] += 1
        assert min(verdicts.values()) > 200

    def test_same_name_gates_are_told_apart(self):
        """Gates differing only in params or in the shared qubit's position
        are each checked (rz(2*pi) and crz(2*pi) act trivially on a qubit
        where rz(0.3) and crz(0.3) do not)."""
        angles = (0.3, math.pi / 2 ** 40, 2 * math.pi)
        on_0 = [Gate(name, qubits, params)
                for name, spec in sorted(GATE_REGISTRY.items())
                if spec.num_qubits
                for qubits in itertools.permutations(range(3), spec.num_qubits)
                if 0 in qubits
                for params in (itertools.product(angles, repeat=spec.num_params)
                               if spec.num_params < 2 else
                               [(0.3, 0.7, -1.1), (0.0, 0.0, 2 * math.pi)])]
        for first in on_0:
            for second in on_0:
                if first.name != second.name or first == second:
                    continue
                frontier = GateFrontier()
                frontier.add(first)
                frontier.add(second)
                for query in on_0:
                    expected = commutes(query, first) and commutes(query, second)
                    assert frontier.commutes(query) is expected, \
                        (query, first, second)

    def test_interleaved_adds_and_queries(self):
        """Verdicts resumed across later adds equal plain pairwise checks."""
        tiny = math.pi / 2 ** 40
        angles = (0.0, -0.0, 0.3, math.nextafter(0.3, 1.0), tiny,
                  math.nextafter(tiny, 0.0), math.pi / 2, 2 * math.pi)
        names = ("rz", "p", "t", "rx", "sx", "x", "ry", "h", "measure",
                 "barrier", "cx", "cy", "crx", "crz", "cp", "rxx", "rzz",
                 "ch", "ccx", "cswap")
        rng = random.Random(11)
        verdicts = {True: 0, False: 0}
        failed_again = 0  # failed queries repeated after more adds
        for _ in range(80):
            num_qubits = rng.randint(3, 4)
            frontier = GateFrontier()
            filed = []
            failed = {}
            for _ in range(40):
                gate = (_random_barrier(rng, num_qubits)
                        if rng.random() < 0.05 else
                        _random_gate(rng, names, num_qubits, angles))
                if rng.random() < 0.4:
                    frontier.add(gate)
                    filed.append(gate)
                    continue
                expected = all(commutes(gate, other) for other in filed
                               if set(gate.qubits) & set(other.qubits))
                assert frontier.commutes(gate) is expected, (gate, filed)
                verdicts[expected] += 1
                key = (gate.name, gate.params, gate.qubits)
                if not expected:
                    failed_again += failed.get(key, len(filed)) < len(filed)
                    failed[key] = len(filed)
        assert min(verdicts.values()) > 400
        assert failed_again > 40

    def test_repeated_queries_check_only_new_gates(self):
        # rz(pi/2^k) this small commutes with a CX target within the
        # matrix check's tolerance, so every check passes until the h.
        frontier = GateFrontier()
        for k in (40, 41, 42):
            frontier.add(Gate("rz", (1,), (math.pi / 2 ** k,)))
        assert frontier.commutes(Gate("cx", (0, 1)))
        assert frontier.calls == 3
        frontier.add(Gate("rz", (1,), (math.pi / 2 ** 43,)))
        assert frontier.commutes(Gate("cx", (2, 1)))
        assert frontier.calls == 4
        frontier.add(Gate("h", (1,)))
        assert not frontier.commutes(Gate("cx", (0, 1)))
        assert frontier.calls == 5
        frontier.add(Gate("rz", (1,), (math.pi / 2 ** 44,)))
        assert not frontier.commutes(Gate("cx", (0, 1)))
        assert frontier.calls == 6  # the new rz; the failed h is not redone

    def test_one_key_for_single_and_multi_barriers(self):
        """A barrier's key does not tell its arity: a two-qubit barrier's
        query must not mark the multi-qubit gates as passed for a
        one-qubit barrier with the same key."""
        frontier = GateFrontier()
        frontier.add(Gate("cx", (0, 1)))
        assert not frontier.commutes(Gate("barrier", (0, 2)))
        assert not frontier.commutes(Gate("barrier", (0,)))


def _random_barrier(rng, num_qubits):
    return Gate("barrier", tuple(rng.sample(range(num_qubits),
                                            rng.randint(1, 3))))


def _qft_program(num_qubits, num_nodes):
    circuit = decompose_to_cx(qft_circuit(num_qubits))
    network = uniform_network(num_nodes, -(-num_qubits // num_nodes))
    return circuit, oee_partition(circuit, network).mapping


def _signature(items):
    return [(type(i), getattr(i, "hub_qubit", None),
             getattr(i, "remote_node", None), tuple(getattr(i, "gates", (i,))))
            for i in items]


class TestScaling:
    @pytest.mark.parametrize("num_qubits,num_nodes", [(40, 4), (60, 6)])
    def test_window_items_stay_linear(self, num_qubits, num_nodes):
        circuit, mapping = _qft_program(num_qubits, num_nodes)
        aggregator = CommAggregator(circuit, mapping)
        result = aggregator.run()
        stats = aggregator.stats
        assert stats["sweeps"] == 1
        assert stats["window_items"] <= 3 * len(circuit)
        # Each splice emits the window's new blocks and some of its items.
        assert stats["relinked_items"] <= \
            stats["window_items"] + len(result.blocks)
        # Resumed bucket verdicts: a repeated query only checks new gates.
        assert aggregator.stats["commute_calls"] <= len(circuit)

    @pytest.mark.parametrize("num_qubits,num_nodes", [(40, 4), (60, 6)])
    def test_plan_burst_checks_stay_linear(self, num_qubits, num_nodes):
        # CX-CX pairs sharing a control match on its Z axis and are skipped.
        circuit = decompose_to_cx(qft_circuit(num_qubits))
        network = uniform_network(num_nodes, -(-num_qubits // num_nodes))
        program = compile_autocomm(circuit, network, cache=False)
        counters = program.spans.find("plan-burst").counters
        assert counters["commute_calls"] <= counters["items"] / 4

    def test_qft40_matches_reference(self):
        # Angles pi/2^k below the matrix check's tolerance make distant
        # rotations commute, which is where deferred lists grow long.
        circuit, mapping = _qft_program(40, 4)
        optimized = aggregate_communications(circuit, mapping)
        reference = aggregate_communications_reference(circuit, mapping)
        assert optimized.to_circuit().gates == reference.to_circuit().gates
        assert optimized.block_sizes() == reference.block_sizes()

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_mixed_axis_circuit_matches_reference(self, seed):
        # X/Y-axis, axis-less (h, ch, cswap) and 3-qubit gates reach the
        # block and deferred frontiers; QFT and Clifford+T circuits do not.
        names = ("cx", "cx", "cy", "crx", "rxx", "ccx", "cswap", "ch", "rx",
                 "ry", "sx", "h", "x", "rz", "t")
        rng = random.Random(seed)
        circuit = Circuit(12, [_random_gate(rng, names, 12, _ANGLES)
                               for _ in range(400)])
        mapping = round_robin_mapping(12, uniform_network(3, 4))
        aggregator = CommAggregator(circuit, mapping)
        optimized = aggregator.run()
        reference = aggregate_communications_reference(circuit, mapping)
        assert _signature(optimized.items) == _signature(reference.items)
        assert aggregator.stats["deferred_checks"] > 0

    def test_repeated_gate_objects_match_reference(self):
        gate = Gate("cx", (0, 2))
        circuit = Circuit(4, [gate, Gate("t", (0,)), Gate("h", (1,)), gate,
                              Gate("cx", (3, 1)), gate])
        mapping = _qft_program(4, 2)[1]
        optimized = aggregate_communications(circuit, mapping)
        reference = aggregate_communications_reference(circuit, mapping)
        assert _signature(optimized.items) == _signature(reference.items)

    def test_padding_ahead_of_every_window_is_not_walked(self):
        circuit, mapping = _qft_program(40, 4)
        plain = CommAggregator(circuit, mapping)
        unpadded = plain.run()
        padding = [Gate("t" if k % 2 else "h", (0,)) for k in range(20_000)]
        padded = CommAggregator(
            Circuit(circuit.num_qubits, padding + list(circuit.gates)), mapping)
        result = padded.run()
        for name in ("window_items", "relinked_items"):
            assert padded.stats[name] == plain.stats[name]
        assert _signature(result.items) == \
            _signature(padding) + _signature(unpadded.items)

    def test_second_run_repeats_the_first(self):
        """``run()`` twice on one aggregator: same items, same stats (the
        counters used to add up across runs)."""
        aggregator = CommAggregator(*_qft_program(12, 3))
        first = _signature(aggregator.run().items)
        first_stats = dict(aggregator.stats)
        assert _signature(aggregator.run().items) == first
        assert aggregator.stats == first_stats
        assert first_stats["sweeps"] == 1
        assert first_stats["pair_passes"] == 12

    def test_span_carries_counters_and_sub_spans(self):
        circuit, mapping = _qft_program(12, 3)
        with Tracer("t") as tracer:
            aggregate_communications(circuit, mapping)
        span = tracer.root.find("aggregation")
        assert {c.name for c in span.children} == {"index", "sweep",
                                                   "leftovers"}
        for name in ("sweeps", "pair_passes", "window_items",
                     "relinked_items", "deferred_checks", "commute_calls"):
            assert name in span.counters
        network = uniform_network(3, 4)
        program = compile_autocomm(circuit, network, cache=False)
        counters = program.spans.find("plan-burst").counters
        assert counters["item_pairs"] > 0
        assert 0 < counters["commute_calls"] < counters["item_pairs"]


class TestBookingEnd:
    def test_search_tests_the_booked_end(self):
        schedule = SlotSchedule(1)
        schedule.book(0.6, 1.0)
        # (0.1 + 0.2) + 0.3 is one ULP above 0.6; 0.1 + (0.2 + 0.3) is not.
        start = schedule.earliest_on_slot(0, 0.3, 0.1, prep=0.2)
        assert start == 1.0
        schedule.book(start, (start + 0.2) + 0.3)

    def test_search_matches_a_full_scan(self):
        """Starting the scan at ``not_before`` skips only intervals that
        cannot move the start (touching and zero-length ones included)."""
        rng = random.Random(4)
        for _ in range(300):
            schedule = SlotSchedule(1)
            for _ in range(rng.randint(0, 12)):
                start = rng.choice((rng.uniform(0, 40), float(rng.randint(0, 40))))
                end = start + rng.choice((0.0, 1.0, rng.uniform(0, 6)))
                if schedule.slot_free(0, start, end):
                    schedule.book(start, end, 0)
            for _ in range(10):
                not_before = rng.choice((rng.uniform(0, 45),
                                         float(rng.randint(0, 45))))
                prep = rng.choice((0.0, 0.5, 1.25))
                duration = rng.choice((0.0, 1.0, rng.uniform(0, 4)))
                expected = not_before
                for s, e in schedule.intervals[0]:
                    if (expected + prep) + duration <= s:
                        break
                    expected = max(expected, e)
                assert schedule.earliest_on_slot(
                    0, duration, not_before, prep) == expected


@pytest.fixture(scope="module")
def qaoa_200():
    circuit, network = BenchmarkSpec("QAOA", 200, 20).build()
    return compile_autocomm(circuit, network, cache=False)


class TestB3Regression:
    def test_seed_1102_trial_books(self, qaoa_200):
        result = simulate_program(qaoa_200, SimulationConfig(
            p_epr=0.5, seed=1102, record_trace=False))
        assert result.latency > 0

    def test_monte_carlo_runs(self, qaoa_200):
        result = run_monte_carlo(qaoa_200, SimulationConfig(
            p_epr=0.5, seed=1, trials=100, record_trace=False))
        assert len(result.latencies) == 100


def _rebooked_slots(reservations, network):
    """Slots the first-free rule picks when the bookings are replayed."""
    tracker = CommResourceTracker(network)
    return [tracker.reserve(r.node, r.start, r.end).slot
            for r in reservations]


class TestSearchedSlotIsFirstFree:
    """``reserve_joint`` books the slot its search chose; replaying every
    booking with ``slot=None`` (the first free slot) must pick the same."""

    @pytest.mark.parametrize("seed", [1102, *range(10)])
    def test_qaoa_200_trials(self, qaoa_200, seed):
        result = simulate_program(qaoa_200, SimulationConfig(
            p_epr=0.5, seed=seed, record_trace=False))
        reservations = result.resources.reservations
        assert _rebooked_slots(reservations, qaoa_200.network) == [
            r.slot for r in reservations]
        assert any(r.slot for r in reservations)

    def test_uccsd_compiled_schedule(self):
        circuit, network = BenchmarkSpec("UCCSD", 8, 4).build()
        program = compile_autocomm(circuit, network, cache=False)
        reservations = program.schedule.resources.reservations
        assert _rebooked_slots(reservations, network) == [
            r.slot for r in reservations]
        assert any(r.slot for r in reservations)
