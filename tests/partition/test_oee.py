"""Unit tests for the interaction graph and OEE partitioner."""

import pytest

from repro.circuits import qft_circuit, bv_circuit
from repro.hardware import apply_topology, uniform_network
from repro.ir import Circuit
from repro.partition import (
    block_mapping,
    cut_weight,
    exchange_gain_reference,
    interaction_graph,
    interaction_matrix,
    migration_distance_matrix,
    oee_partition,
    oee_repartition,
    round_robin_mapping,
)


class TestInteractionGraph:
    def test_all_qubits_present(self):
        graph = interaction_graph(Circuit(5).cx(0, 1))
        assert set(graph.nodes) == {0, 1, 2, 3, 4}

    def test_edge_weights_count_interactions(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 0).crz(0.3, 1, 2)
        graph = interaction_graph(circuit)
        assert graph[0][1]["weight"] == 2
        assert graph[1][2]["weight"] == 1
        assert not graph.has_edge(0, 2)

    def test_single_qubit_gates_ignored(self):
        graph = interaction_graph(Circuit(3).h(0).rz(0.3, 1))
        assert graph.number_of_edges() == 0

    def test_interaction_matrix_symmetric(self):
        circuit = Circuit(3).cx(0, 2).cx(0, 2).cx(1, 2)
        matrix = interaction_matrix(circuit)
        assert matrix[0, 2] == 2
        assert matrix[2, 0] == 2
        assert matrix[1, 2] == 1
        assert matrix[0, 1] == 0

    def test_cut_weight(self):
        circuit = Circuit(4).cx(0, 1).cx(1, 2).cx(2, 3)
        graph = interaction_graph(circuit)
        same_node = {0: 0, 1: 0, 2: 0, 3: 0}
        split = {0: 0, 1: 0, 2: 1, 3: 1}
        assert cut_weight(graph, same_node) == 0
        assert cut_weight(graph, split) == 1


class TestExchangeGain:
    def test_positive_gain_for_obvious_improvement(self):
        # Chain 0-1 2-3 but 1 and 2 are swapped across nodes.
        circuit = Circuit(4).cx(0, 1).cx(0, 1).cx(2, 3).cx(2, 3)
        graph = interaction_graph(circuit)
        weights = {q: dict(graph[q]) for q in graph.nodes}
        weights = {q: {n: d["weight"] for n, d in graph[q].items()} for q in graph.nodes}
        bad = {0: 0, 1: 1, 2: 0, 3: 1}
        gain = exchange_gain_reference(weights, bad, 1, 2)
        assert gain == pytest.approx(4.0)

    def test_zero_gain_same_node(self):
        circuit = Circuit(4).cx(0, 1)
        graph = interaction_graph(circuit)
        weights = {q: {n: d["weight"] for n, d in graph[q].items()} for q in graph.nodes}
        assignment = {0: 0, 1: 0, 2: 1, 3: 1}
        assert exchange_gain_reference(weights, assignment, 0, 1) == 0.0


class TestOEE:
    def test_oee_never_worse_than_initial(self):
        circuit = qft_circuit(12)
        network = uniform_network(3, 4)
        result = oee_partition(circuit, network)
        assert result.final_cut <= result.initial_cut

    def test_oee_recovers_obvious_clusters(self):
        # Two independent fully-local clusters scrambled by a round-robin start.
        circuit = Circuit(8)
        for _ in range(3):
            for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]:
                circuit.cx(a, b)
        network = uniform_network(2, 4)
        scrambled = round_robin_mapping(8, network)
        result = oee_partition(circuit, network, initial=scrambled)
        assert result.final_cut == 0

    def test_oee_respects_capacity(self):
        circuit = qft_circuit(9)
        network = uniform_network(3, 3)
        result = oee_partition(circuit, network)
        for node in range(3):
            assert len(result.mapping.qubits_on(node)) <= 3

    def test_oee_capacity_error(self):
        circuit = qft_circuit(10)
        network = uniform_network(2, 4)
        with pytest.raises(ValueError):
            oee_partition(circuit, network)

    @pytest.mark.parametrize("seed_qubits", [6, 3], ids=["larger", "smaller"])
    def test_seed_must_match_qubit_count(self, seed_qubits):
        # A larger seed used to be truncated silently and a smaller one
        # raised a bare KeyError; both entry points now reject it.
        circuit = qft_circuit(4)
        network = uniform_network(2, 3)
        seed = block_mapping(seed_qubits, network)
        with pytest.raises(ValueError, match="disagree on qubit count"):
            oee_partition(circuit, network, initial=seed)
        with pytest.raises(ValueError, match="disagree on qubit count"):
            oee_repartition(circuit, network, seed)

    def test_oee_mapping_covers_all_qubits(self):
        circuit = bv_circuit(12)
        network = uniform_network(3, 4)
        mapping = oee_partition(circuit, network).mapping
        assert mapping.num_qubits == 12

    def test_oee_counts_match_cut(self):
        circuit = qft_circuit(10)
        network = uniform_network(2, 5)
        result = oee_partition(circuit, network)
        graph = interaction_graph(circuit)
        assert cut_weight(graph, result.mapping.as_dict()) == result.final_cut

    def test_oee_on_circuit_with_no_interactions(self):
        circuit = Circuit(6).h(0).h(1).h(2)
        network = uniform_network(2, 3)
        result = oee_partition(circuit, network)
        assert result.initial_cut == 0
        assert result.final_cut == 0
        assert result.num_exchanges == 0

    def test_repr_mentions_cut(self):
        circuit = qft_circuit(8)
        network = uniform_network(2, 4)
        result = oee_partition(circuit, network)
        assert "cut" in repr(result)


class TestMigrationDistanceMatrix:
    def test_unrouted_network_charges_unit_moves(self):
        network = uniform_network(3, 2)
        matrix = migration_distance_matrix(network)
        assert matrix == [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]

    def test_routed_network_uses_cost_matrix(self):
        network = uniform_network(4, 2)
        apply_topology(network, "line")
        matrix = migration_distance_matrix(network)
        assert matrix == network.routing.cost_matrix()
        assert matrix[0][3] == 3


class TestOEERepartition:
    def _line_network(self):
        network = uniform_network(4, 2)
        apply_topology(network, "line")
        return network

    def test_no_interactions_returns_previous_mapping(self):
        network = self._line_network()
        previous = block_mapping(8, network)
        circuit = Circuit(8).h(0).h(5)
        result = oee_repartition(circuit, network, previous)
        assert result.mapping.as_dict() == previous.as_dict()
        assert result.migration_moves == 0
        assert result.migration_cost == 0.0

    def test_small_gain_does_not_beat_migration_bill(self):
        # One lone remote CX between adjacent nodes: colocating would save
        # distance 1 per endpoint moved but cost at least 1 per move.
        network = self._line_network()
        previous = block_mapping(8, network)
        circuit = Circuit(8).cx(1, 2)
        result = oee_repartition(circuit, network, previous)
        assert result.migration_moves == 0
        assert result.mapping.as_dict() == previous.as_dict()

    def test_heavy_phase_traffic_triggers_migration(self):
        # Many bursts between the line's far ends: savings of 3 hops per
        # gate dwarf the migration distance, so the qubits converge.
        network = self._line_network()
        previous = block_mapping(8, network)
        circuit = Circuit(8)
        for _ in range(10):
            circuit.cx(0, 7)
        result = oee_repartition(circuit, network, previous)
        assert result.migration_moves > 0
        mapping = result.mapping
        distance = network.routing.cost_matrix()
        assert (distance[mapping.node_of(0)][mapping.node_of(7)]
                < distance[previous.node_of(0)][previous.node_of(7)])

    def test_migration_cost_matches_moved_distances(self):
        network = self._line_network()
        previous = block_mapping(8, network)
        circuit = Circuit(8)
        for _ in range(10):
            circuit.cx(0, 7)
        result = oee_repartition(circuit, network, previous)
        matrix = migration_distance_matrix(network)
        expected = sum(
            matrix[previous.node_of(q)][result.mapping.node_of(q)]
            for q in range(8)
            if result.mapping.node_of(q) != previous.node_of(q))
        assert result.migration_cost == pytest.approx(expected)
        assert result.migration_moves == sum(
            1 for q in range(8)
            if result.mapping.node_of(q) != previous.node_of(q))

    def test_exchanges_preserve_node_loads(self):
        network = self._line_network()
        previous = block_mapping(8, network)
        circuit = qft_circuit(8)
        result = oee_repartition(circuit, network, previous)
        for node in range(4):
            assert (len(result.mapping.qubits_on(node))
                    == len(previous.qubits_on(node)))

    def test_free_moves_with_zero_migration_costs(self):
        # With the migration bill zeroed out the pass degenerates to a
        # plain OEE improvement of the seed, so an obviously bad seed on
        # heavy far-end traffic must be repaired.
        network = self._line_network()
        previous = block_mapping(8, network)
        circuit = Circuit(8)
        for _ in range(3):
            circuit.cx(0, 7)
        zero = [[0.0] * 4 for _ in range(4)]
        free = oee_repartition(circuit, network, previous,
                               migration_costs=zero)
        billed = oee_repartition(circuit, network, previous)
        assert free.final_cut <= billed.final_cut
        assert free.migration_cost == 0.0

    def test_qubit_count_mismatch_rejected(self):
        network = self._line_network()
        previous = block_mapping(6, network)
        with pytest.raises(ValueError):
            oee_repartition(Circuit(8), network, previous)
