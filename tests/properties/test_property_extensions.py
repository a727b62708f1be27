"""Property-based tests for network topologies and for the paper's
Section 3.2 claims."""


import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import qft_inverse_burst_bound
from repro.hardware import apply_topology, hop_counts, topology_graph, uniform_network


class TestTopologyProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["line", "ring", "star", "grid", "all-to-all"]),
           st.integers(2, 12))
    def test_topologies_are_connected(self, kind, num_nodes):
        graph = topology_graph(kind, num_nodes)
        assert nx.is_connected(graph)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["line", "ring", "star", "grid"]), st.integers(2, 10),
           st.floats(0.0, 3.0, allow_nan=False))
    def test_epr_latency_monotone_in_hops(self, kind, num_nodes, overhead):
        network = apply_topology(uniform_network(num_nodes, 2), kind,
                                 swap_overhead=overhead)
        hops = hop_counts(topology_graph(kind, num_nodes))
        base = network.latency.t_epr
        for (a, b), count in hops.items():
            assert network.epr_latency(a, b) == pytest.approx(
                base * (1 + overhead * (count - 1)))
            assert network.epr_latency(a, b) >= base


class TestSection32Claims:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 10), st.integers(1, 5))
    def test_qft_bound_shape(self, qubits_per_node, num_nodes, m):
        """P(2m) bound (m-1)/t is within [0, 1] and decreases with t."""
        num_qubits = qubits_per_node * num_nodes
        bound = qft_inverse_burst_bound(num_qubits, num_nodes, threshold=2 * m)
        assert 0.0 <= bound <= 1.0
        larger_t = qft_inverse_burst_bound(num_qubits * 2, num_nodes, threshold=2 * m)
        assert larger_t <= bound + 1e-12
