"""Equivalence of the vectorized OEE search against the scalar reference.

The numpy search in :mod:`repro.partition.oee` must reproduce the preserved
scalar implementation bit-for-bit: same mappings, cuts, exchange counts,
rounds and migration bills on every benchmark family, topology and remap
mode — that is what guarantees every compiled program downstream is
unchanged by the rewrite.
"""

import pytest

from repro.circuits import (bv_circuit, mctr_circuit, qaoa_maxcut_circuit,
                            qft_circuit, random_circuit,
                            rca_circuit_for_width)
from repro.core import AutoCommConfig, compile_autocomm, pipeline
from repro.hardware import LinkModel, LinkSpec, apply_topology, uniform_network
from repro.partition import (
    exchange_gain_reference,
    exchange_gain_vector,
    interaction_matrix,
    oee_partition,
    oee_partition_reference,
    oee_repartition,
    oee_repartition_reference,
    round_robin_mapping,
)
from repro.partition.interaction_graph import interaction_graph

FAMILIES = [
    ("qft", lambda: qft_circuit(18)),
    ("bv", lambda: bv_circuit(20)),
    ("qaoa", lambda: qaoa_maxcut_circuit(16, seed=3)),
    ("rca", lambda: rca_circuit_for_width(17)),
    ("mctr", lambda: mctr_circuit(18)),
]
TOPOLOGIES = [None, "line", "ring", "grid", "star"]


def _network(num_qubits, nodes, topology):
    network = uniform_network(nodes, -(-num_qubits // nodes))
    if topology is not None:
        apply_topology(network, topology)
    return network


def assert_results_equal(reference, vectorized):
    assert vectorized.mapping.as_dict() == reference.mapping.as_dict()
    assert vectorized.initial_cut == reference.initial_cut
    assert vectorized.final_cut == reference.final_cut
    assert vectorized.num_exchanges == reference.num_exchanges
    assert vectorized.rounds == reference.rounds
    assert vectorized.migration_moves == reference.migration_moves
    assert vectorized.migration_cost == reference.migration_cost


class TestPartitionEquivalence:
    @pytest.mark.parametrize("family,make", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=[t or "all-to-all" for t in TOPOLOGIES])
    @pytest.mark.parametrize("nodes", [2, 4])
    @pytest.mark.parametrize("use_link_distances", [None, False],
                             ids=["auto-distances", "unit-distances"])
    def test_partition_matches_reference(self, family, make, topology, nodes,
                                         use_link_distances):
        # ``False`` on a routed topology opts out of distance weighting:
        # the search then prices the cut with unit distances.
        circuit = make()
        network = _network(circuit.num_qubits, nodes, topology)
        assert_results_equal(
            oee_partition_reference(circuit, network,
                                    use_link_distances=use_link_distances),
            oee_partition(circuit, network,
                          use_link_distances=use_link_distances))

    @pytest.mark.parametrize("family,make", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=[t or "all-to-all" for t in TOPOLOGIES])
    def test_repartition_matches_reference(self, family, make, topology):
        circuit = make()
        network = _network(circuit.num_qubits, 4, topology)
        # Round-robin scatters qubits, so the search has real work to do
        # both as a fresh partition seed and a migration-priced seed.
        seed = round_robin_mapping(circuit.num_qubits, network)
        assert_results_equal(
            oee_partition_reference(circuit, network, initial=seed),
            oee_partition(circuit, network, initial=seed))
        assert_results_equal(
            oee_repartition_reference(circuit, network, seed),
            oee_repartition(circuit, network, seed))

    def test_heterogeneous_links_match(self):
        circuit = qft_circuit(16)
        network = uniform_network(4, 4)
        model = LinkModel(LinkSpec(12.0), {(0, 1): LinkSpec(36.0),
                                           (2, 3): LinkSpec(18.5)})
        apply_topology(network, "line", link_model=model)
        assert_results_equal(oee_partition_reference(circuit, network),
                             oee_partition(circuit, network))
        seed = round_robin_mapping(16, network)
        assert_results_equal(oee_repartition_reference(circuit, network, seed),
                             oee_repartition(circuit, network, seed))

    @pytest.mark.parametrize("topology", ["line", "ring", "grid"])
    def test_non_dyadic_links_match(self, topology):
        # 13.3 and 0.1 have no exact float64 form, so a cut summed in any
        # order but the reference's edge order drifts in the last place.
        # Random gates reach pairs out of lower-endpoint order.
        circuit = random_circuit(30, 400, seed=5)
        network = uniform_network(6, 5)
        model = LinkModel(LinkSpec(13.3), {(0, 1): LinkSpec(0.1)})
        apply_topology(network, topology, link_model=model)
        assert_results_equal(oee_partition_reference(circuit, network),
                             oee_partition(circuit, network))
        seed = round_robin_mapping(30, network)
        assert_results_equal(oee_repartition_reference(circuit, network, seed),
                             oee_repartition(circuit, network, seed))

    def test_migration_cost_override_with_nonzero_diagonal(self):
        # The scalar move_cost charges nothing at a qubit's home node even
        # when the override matrix carries a nonzero diagonal; the
        # vectorized effective-cost matrix must do the same.
        circuit = qaoa_maxcut_circuit(12, seed=9)
        network = uniform_network(3, 4)
        costs = [[5.0 if i == j else float(2 + i + j) for j in range(3)]
                 for i in range(3)]
        seed = round_robin_mapping(12, network)
        assert_results_equal(
            oee_repartition_reference(circuit, network, seed,
                                      migration_costs=costs),
            oee_repartition(circuit, network, seed, migration_costs=costs))

    def test_idle_circuit_has_no_exchanges(self):
        from repro.ir import Circuit

        circuit = Circuit(6, name="idle")
        network = uniform_network(3, 2)
        assert_results_equal(oee_partition_reference(circuit, network),
                             oee_partition(circuit, network))


class TestPipelineEquivalence:
    def test_phased_compile_identical_under_either_search(self, monkeypatch):
        circuit = qft_circuit(14)
        network = uniform_network(4, 4)
        apply_topology(network, "line")
        config = AutoCommConfig(remap="bursts", phase_blocks=3)
        vectorized = compile_autocomm(circuit, network, config=config)

        calls = []

        def counted(search):
            def run(*args, **kwargs):
                calls.append(search.__name__)
                return search(*args, **kwargs)
            return run

        monkeypatch.setattr(pipeline, "oee_partition",
                            counted(oee_partition_reference))
        monkeypatch.setattr(pipeline, "oee_repartition",
                            counted(oee_repartition_reference))
        reference = compile_autocomm(circuit, network, config=config)
        assert {"oee_partition_reference",
                "oee_repartition_reference"} <= set(calls)
        assert (vectorized.mapping.as_dict()
                == reference.mapping.as_dict())
        assert len(vectorized.phases) == len(reference.phases)
        for vec_phase, ref_phase in zip(vectorized.phases, reference.phases):
            assert (vec_phase.mapping.as_dict()
                    == ref_phase.mapping.as_dict())
        vec_moves = [(m.qubit, m.source, m.target)
                     for boundary in (vectorized.migrations or [])
                     for m in boundary]
        ref_moves = [(m.qubit, m.source, m.target)
                     for boundary in (reference.migrations or [])
                     for m in boundary]
        assert vec_moves == ref_moves
        assert (vectorized.schedule.latency == reference.schedule.latency)


class TestGainVector:
    def test_matches_scalar_uniform_and_routed(self):
        circuit = qaoa_maxcut_circuit(10, seed=4)
        network = uniform_network(3, 4)
        apply_topology(network, "line")
        weights_matrix = interaction_matrix(circuit)
        graph = interaction_graph(circuit)
        weights = {q: {n: d["weight"]
                       for n, d in graph.adj[q].items()}
                   for q in graph.nodes}
        assignment = round_robin_mapping(10, network).as_dict()
        assignment_vec = [assignment[q] for q in range(10)]
        distances = network.routing.cost_matrix()
        for node_distances in (None, distances):
            for qubit_a in range(10):
                gains = exchange_gain_vector(weights_matrix, assignment_vec,
                                             qubit_a,
                                             node_distances=node_distances)
                for qubit_b in range(10):
                    expected = exchange_gain_reference(
                        weights, assignment, qubit_a, qubit_b,
                        node_distances=node_distances)
                    assert gains[qubit_b] == expected
