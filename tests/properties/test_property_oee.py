"""Property-based equivalence of vectorized and scalar OEE gain math.

The vectorized gain expressions regroup the scalar sums onto matrix
products, which is only safe because the inputs are exact in float64:
interaction weights are integer gate counts and distances are integer hop
counts or dyadic link-latency sums.  These properties pin that argument on
random weight graphs, assignments and distance matrices — uniform and
routed branches, plus full-search equivalence on random circuits.
"""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits import random_circuit
from repro.hardware import apply_topology, uniform_network
from repro.partition import (exchange_gain_reference, exchange_gain_vector,
                             oee_partition, oee_partition_reference,
                             oee_repartition, oee_repartition_reference,
                             round_robin_mapping)


@st.composite
def gain_instances(draw):
    """A random weighted graph, node assignment and distance matrix."""
    num_qubits = draw(st.integers(2, 10))
    num_nodes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, 6, size=(num_qubits, num_qubits)).astype(float)
    weights = np.triu(weights, 1)
    weights = weights + weights.T
    assignment = rng.integers(0, num_nodes, size=num_qubits)
    # Qubits on a node nobody else uses still exercise the same-node mask.
    dyadic = draw(st.booleans())
    distances = rng.integers(1, 8, size=(num_nodes, num_nodes)).astype(float)
    if dyadic:
        # Dyadic rationals (multiples of 1/4) model link-latency sums;
        # they are exact in float64 so regrouped sums stay bit-identical.
        distances = distances / 4.0
    np.fill_diagonal(distances, 0.0)
    return weights, assignment, distances


def _weights_dict(weights):
    mapping = defaultdict(dict)
    n = weights.shape[0]
    for a in range(n):
        for b in range(n):
            if weights[a, b]:
                mapping[a][b] = float(weights[a, b])
    return mapping

def _scalar_args(weights, assignment):
    return _weights_dict(weights), {q: int(n) for q, n in enumerate(assignment)}


class TestExchangeGainProperties:
    @settings(max_examples=60, deadline=None)
    @given(gain_instances())
    def test_uniform_branch_matches_scalar(self, instance):
        weights, assignment, _ = instance
        weight_map, assign_map = _scalar_args(weights, assignment)
        n = weights.shape[0]
        for qubit_a in range(n):
            gains = exchange_gain_vector(weights, assignment, qubit_a)
            for qubit_b in range(n):
                expected = exchange_gain_reference(weight_map, assign_map,
                                                   qubit_a, qubit_b)
                assert gains[qubit_b] == expected

    @settings(max_examples=60, deadline=None)
    @given(gain_instances())
    def test_routed_branch_matches_scalar(self, instance):
        weights, assignment, distances = instance
        weight_map, assign_map = _scalar_args(weights, assignment)
        dist_rows = [list(row) for row in distances]
        n = weights.shape[0]
        for qubit_a in range(n):
            gains = exchange_gain_vector(weights, assignment, qubit_a,
                                         node_distances=distances)
            for qubit_b in range(n):
                expected = exchange_gain_reference(weight_map, assign_map,
                                                   qubit_a, qubit_b,
                                                   node_distances=dist_rows)
                assert gains[qubit_b] == expected


class TestSearchProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(6, 14), st.integers(2, 4),
           st.sampled_from([None, "line", "ring"]))
    def test_full_search_matches_reference(self, seed, num_qubits, nodes,
                                           topology):
        circuit = random_circuit(num_qubits, 40, seed=seed)
        network = uniform_network(nodes, -(-num_qubits // nodes))
        if topology is not None:
            apply_topology(network, topology)
        initial = round_robin_mapping(num_qubits, network)
        reference = oee_partition_reference(circuit, network, initial=initial)
        vectorized = oee_partition(circuit, network, initial=initial)
        assert vectorized.mapping.as_dict() == reference.mapping.as_dict()
        assert vectorized.final_cut == reference.final_cut
        assert vectorized.num_exchanges == reference.num_exchanges
        assert vectorized.rounds == reference.rounds

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(6, 14), st.integers(2, 4),
           st.sampled_from([None, "line", "ring"]))
    def test_full_repartition_matches_reference(self, seed, num_qubits, nodes,
                                                topology):
        circuit = random_circuit(num_qubits, 40, seed=seed)
        network = uniform_network(nodes, -(-num_qubits // nodes))
        if topology is not None:
            apply_topology(network, topology)
        previous = round_robin_mapping(num_qubits, network)
        reference = oee_repartition_reference(circuit, network, previous)
        vectorized = oee_repartition(circuit, network, previous)
        assert vectorized.mapping.as_dict() == reference.mapping.as_dict()
        assert vectorized.final_cut == reference.final_cut
        assert vectorized.num_exchanges == reference.num_exchanges
        assert vectorized.migration_moves == reference.migration_moves
        assert vectorized.migration_cost == reference.migration_cost
