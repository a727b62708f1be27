"""Reference (pre-vectorization) implementation of the OEE search.

This module preserves the original pure-python Overall Extreme Exchange
search exactly as it behaved before the numpy rewrite of
:mod:`repro.partition.oee`: neighbour weights live in dicts-of-dicts, every
candidate swap re-walks both qubits' adjacency lists, and the migration-aware
repartition pass re-prices every move per candidate.

It exists for two reasons:

* **Equivalence testing** — the vectorized search must produce bit-identical
  mappings, cuts, exchange counts and migration bills; the tests in
  ``tests/partition/test_oee_vectorized.py`` and the hypothesis properties in
  ``tests/properties/test_property_oee.py`` diff the two implementations over
  the benchmark families and random graphs.
* **Perf trajectory** — ``benchmarks/bench_partition.py`` times this path
  against the vectorized search and records the speedup in
  ``BENCH_partition.json``; CI fails when the speedup regresses.

Production code never calls it: :func:`repro.partition.oee_partition` /
:func:`~repro.partition.oee_repartition` always run the vectorized search.

Do not "optimize" this module: its slowness is the baseline being measured.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import networkx as nx

from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from .interaction_graph import cut_weight, interaction_graph
from .mapping import QubitMapping, block_mapping
from .oee import (OEEResult, _topology_distances, migration_distance_matrix)

__all__ = ["exchange_gain_reference", "oee_partition_reference",
           "oee_repartition_reference"]


def exchange_gain_reference(weights: Dict[int, Dict[int, float]],
                            assignment: Dict[int, int],
                            qubit_a: int, qubit_b: int,
                            node_distances: Optional[List[List[float]]] = None
                            ) -> float:
    """Scalar gain of swapping ``qubit_a``/``qubit_b`` (pre-vectorization)."""
    node_a = assignment[qubit_a]
    node_b = assignment[qubit_b]
    if node_a == node_b:
        return 0.0
    gain = 0.0
    if node_distances is None:
        for neighbour, weight in weights[qubit_a].items():
            if neighbour == qubit_b:
                continue
            node_n = assignment[neighbour]
            gain += weight * ((node_n != node_a) - (node_n != node_b))
        for neighbour, weight in weights[qubit_b].items():
            if neighbour == qubit_a:
                continue
            node_n = assignment[neighbour]
            gain += weight * ((node_n != node_b) - (node_n != node_a))
        return gain
    dist_a = node_distances[node_a]
    dist_b = node_distances[node_b]
    for neighbour, weight in weights[qubit_a].items():
        if neighbour == qubit_b:
            continue
        node_n = assignment[neighbour]
        gain += weight * (dist_a[node_n] - dist_b[node_n])
    for neighbour, weight in weights[qubit_b].items():
        if neighbour == qubit_a:
            continue
        node_n = assignment[neighbour]
        gain += weight * (dist_b[node_n] - dist_a[node_n])
    return gain


def _neighbour_weights(graph: nx.Graph) -> Dict[int, Dict[int, float]]:
    weights: Dict[int, Dict[int, float]] = defaultdict(dict)
    for a, b, data in graph.edges(data=True):
        w = data.get("weight", 1.0)
        weights[a][b] = w
        weights[b][a] = w
    return weights


def oee_partition_reference(circuit: Circuit, network: QuantumNetwork,
                            initial: Optional[QubitMapping] = None,
                            max_rounds: int = 50,
                            use_link_distances: Optional[bool] = None
                            ) -> OEEResult:
    """The original scalar extreme-exchange search (see module docstring)."""
    network.validate_capacity(circuit.num_qubits)
    distances = _topology_distances(network, use_link_distances)
    graph = interaction_graph(circuit)
    weights = _neighbour_weights(graph)
    mapping = initial if initial is not None else block_mapping(circuit.num_qubits, network)
    assignment = mapping.as_dict()
    initial_cut = cut_weight(graph, assignment, node_distances=distances)

    # Only qubits with at least one interaction can change the cut.
    active = sorted(weights.keys())
    num_exchanges = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        improved = False
        for i, qubit_a in enumerate(active):
            # Greedy "extreme" step: find the partner with the largest gain.
            best_gain = 0.0
            best_partner: Optional[int] = None
            for qubit_b in active[i + 1:]:
                if assignment[qubit_a] == assignment[qubit_b]:
                    continue
                gain = exchange_gain_reference(weights, assignment, qubit_a,
                                               qubit_b, node_distances=distances)
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_partner = qubit_b
            if best_partner is not None:
                assignment[qubit_a], assignment[best_partner] = (
                    assignment[best_partner], assignment[qubit_a])
                num_exchanges += 1
                improved = True
        if not improved:
            break

    final_cut = cut_weight(graph, assignment, node_distances=distances)
    result_mapping = QubitMapping(assignment, network)
    return OEEResult(result_mapping, initial_cut, final_cut, num_exchanges,
                     rounds)


def oee_repartition_reference(circuit: Circuit, network: QuantumNetwork,
                              previous: QubitMapping,
                              max_rounds: int = 50,
                              use_link_distances: Optional[bool] = None,
                              migration_costs: Optional[List[List[float]]] = None
                              ) -> OEEResult:
    """The original scalar migration-aware repartition search."""
    network.validate_capacity(circuit.num_qubits)
    if previous.num_qubits != circuit.num_qubits:
        raise ValueError("previous mapping and circuit disagree on qubit count")
    distances = _topology_distances(network, use_link_distances)
    migration = (migration_costs if migration_costs is not None
                 else migration_distance_matrix(network))
    graph = interaction_graph(circuit)
    weights = _neighbour_weights(graph)
    home = previous.as_dict()
    assignment = dict(home)
    initial_cut = cut_weight(graph, assignment, node_distances=distances)

    def move_cost(qubit: int, node: int) -> float:
        origin = home[qubit]
        return 0.0 if node == origin else migration[origin][node]

    # Only qubits interacting in this phase can *earn* a move, but any
    # qubit may serve as the displaced swap partner (exchanges preserve
    # per-node load, so capacity is maintained by construction).
    active = sorted(weights.keys())
    all_qubits = list(range(circuit.num_qubits))
    num_exchanges = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        improved = False
        for qubit_a in active:
            best_gain = 0.0
            best_partner: Optional[int] = None
            node_a = assignment[qubit_a]
            for qubit_b in all_qubits:
                node_b = assignment[qubit_b]
                if qubit_b == qubit_a or node_a == node_b:
                    continue
                gain = exchange_gain_reference(weights, assignment, qubit_a,
                                               qubit_b, node_distances=distances)
                # Migration delta of the swap: what both qubits pay now vs
                # what they would pay on each other's nodes.
                gain += (move_cost(qubit_a, node_a) + move_cost(qubit_b, node_b)
                         - move_cost(qubit_a, node_b) - move_cost(qubit_b, node_a))
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_partner = qubit_b
            if best_partner is not None:
                assignment[qubit_a], assignment[best_partner] = (
                    assignment[best_partner], assignment[qubit_a])
                node_a = assignment[qubit_a]
                num_exchanges += 1
                improved = True
        if not improved:
            break

    final_cut = cut_weight(graph, assignment, node_distances=distances)
    moves = [q for q in all_qubits if assignment[q] != home[q]]
    total_migration = sum(migration[home[q]][assignment[q]] for q in moves)
    return OEEResult(QubitMapping(assignment, network), initial_cut,
                     final_cut, num_exchanges, rounds,
                     migration_moves=len(moves),
                     migration_cost=total_migration)
