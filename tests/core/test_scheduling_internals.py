"""White-box tests for scheduler and aggregator internals."""

import math
import random

import pytest

from repro.comm import CommBlock, CommScheme
from repro.core.aggregation import CommAggregator
from repro.core.scheduling import (
    FusedTPChain,
    _build_dependencies,
    _PairwiseCommutation,
)
from repro.core.scheduling_reference import (_epr_prep_latency,
                                             _items_commute_reference)
from repro.hardware import DEFAULT_LATENCY, apply_topology, uniform_network
from repro.ir import Circuit, Gate
from repro.ir.commutation import GATE_REGISTRY
from repro.partition import QubitMapping


def cat_block(gates, hub, hub_node, remote_node, scheme=CommScheme.CAT):
    block = CommBlock(hub_qubit=hub, hub_node=hub_node, remote_node=remote_node)
    block.extend(gates)
    block.scheme = scheme
    return block


class TestDependencyConstruction:
    def test_program_order_chaining_without_commutation(self):
        items = [Gate("h", (0,)), Gate("cx", (0, 1)), Gate("h", (1,))]
        preds = _build_dependencies(items, 2, commutation_aware=False)
        assert preds == [[], [0], [1]]

    def test_disjoint_items_have_no_dependencies(self):
        items = [Gate("h", (0,)), Gate("h", (1,)), Gate("h", (2,))]
        preds = _build_dependencies(items, 3, commutation_aware=True)
        assert preds == [[], [], []]

    def test_commuting_blocks_are_independent(self):
        a = cat_block([Gate("cx", (0, 2))], 0, 0, 1)
        b = cat_block([Gate("cx", (0, 3))], 0, 0, 1)
        preds = _build_dependencies([a, b], 4, commutation_aware=True)
        assert preds[1] == []

    def test_commuting_blocks_kept_ordered_without_commutation(self):
        a = cat_block([Gate("cx", (0, 2))], 0, 0, 1)
        b = cat_block([Gate("cx", (0, 3))], 0, 0, 1)
        preds = _build_dependencies([a, b], 4, commutation_aware=False)
        assert preds[1] == [0]

    def test_non_commuting_blocks_stay_ordered(self):
        a = cat_block([Gate("cx", (0, 2))], 0, 0, 1)
        b = cat_block([Gate("cx", (2, 0))], 2, 1, 0)
        preds = _build_dependencies([a, b], 4, commutation_aware=True)
        assert preds[1] == [0]

    def test_gate_after_block_depends_on_it(self):
        a = cat_block([Gate("cx", (0, 2))], 0, 0, 1)
        gate = Gate("h", (0,))
        preds = _build_dependencies([a, gate], 4, commutation_aware=True)
        assert preds[1] == [0]

    def test_barrier_depends_on_everything(self):
        items = [Gate("h", (0,)), Gate("h", (1,)), Gate("barrier", (0, 1))]
        preds = _build_dependencies(items, 2, commutation_aware=True)
        assert preds[2] == [0, 1]

    def test_lookback_limit_adds_conservative_edge(self):
        # 15 pairwise-commuting blocks on the same hub exceed the lookback
        # window, so the last one is anchored on an older block instead of
        # being left floating.
        blocks = [cat_block([Gate("cx", (0, 2 + (i % 2)))], 0, 0, 1)
                  for i in range(15)]
        preds = _build_dependencies(blocks, 4, commutation_aware=True, lookback=4)
        assert preds[-1]  # not empty


def _random_item(rng, num_qubits):
    """A gate, block or fused chain over X/Y/Z-axis, axis-less and 3-qubit
    gates (blocks are not checked for remote-gate structure here)."""
    names = ("cx", "cy", "crx", "crz", "cp", "rxx", "rzz", "ch", "ccx",
             "cswap", "rz", "p", "t", "rx", "sx", "ry", "h", "x")
    angles = (0.0, -0.0, 0.3, math.nextafter(0.3, 1.0), math.pi / 2 ** 40)

    def gate():
        spec = GATE_REGISTRY[rng.choice(names)]
        return Gate(spec.name, tuple(rng.sample(range(num_qubits),
                                                spec.num_qubits)),
                    tuple(rng.choice(angles) for _ in range(spec.num_params)))

    def block():
        return cat_block([gate() for _ in range(rng.randint(1, 5))],
                         0, 0, 1, scheme=CommScheme.TP)

    kind = rng.random()
    if kind < 0.3:
        return gate()
    if kind < 0.8:
        return block()
    return FusedTPChain(blocks=[block() for _ in range(rng.randint(2, 3))])


class TestItemsCommute:
    def test_blocks_with_shared_commuting_gates(self):
        a = cat_block([Gate("cx", (0, 2))], 0, 0, 1)
        b = cat_block([Gate("cx", (0, 3))], 0, 0, 1)
        assert _PairwiseCommutation().items_commute(a, b)

    def test_block_vs_gate(self):
        a = cat_block([Gate("cx", (0, 2))], 0, 0, 1)
        assert _PairwiseCommutation().items_commute(a, Gate("t", (0,)))
        assert not _PairwiseCommutation().items_commute(a, Gate("h", (0,)))

    def test_fused_chain_participates(self):
        a = cat_block([Gate("cx", (0, 2))], 0, 0, 1, scheme=CommScheme.TP)
        b = cat_block([Gate("cx", (0, 3))], 0, 0, 2, scheme=CommScheme.TP)
        chain = FusedTPChain(blocks=[a, b])
        assert _PairwiseCommutation().items_commute(
            chain, Gate("rz", (0,), (0.2,)))
        assert not _PairwiseCommutation().items_commute(chain, Gate("h", (2,)))

    def test_oracle_matches_full_cross_product(self):
        """Skipping axis-matched gate pairs changes no item verdict."""
        rng = random.Random(7)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            num_qubits = rng.randint(3, 5)
            items = [_random_item(rng, num_qubits) for _ in range(8)]
            oracle = _PairwiseCommutation()
            for a in items:
                for b in items:
                    expected = _items_commute_reference(a, b)
                    assert oracle.items_commute(a, b) is expected, (a, b)
                    verdicts[expected] += 1
        assert min(verdicts.values()) > 2000


class TestEprPrepLatency:
    def test_uniform_network_uses_base_latency(self):
        network = uniform_network(3, 2)
        assert _epr_prep_latency(network, (0, 1)) == DEFAULT_LATENCY.t_epr

    def test_topology_scaled_latency(self):
        network = apply_topology(uniform_network(4, 2), "line", swap_overhead=1.0)
        assert _epr_prep_latency(network, (0, 3)) == pytest.approx(
            3 * DEFAULT_LATENCY.t_epr)

    def test_chain_charged_slowest_pair(self):
        network = apply_topology(uniform_network(4, 2), "line", swap_overhead=1.0)
        assert _epr_prep_latency(network, (0, 1, 3)) == pytest.approx(
            3 * DEFAULT_LATENCY.t_epr)

    def test_single_node_falls_back_to_base(self):
        network = uniform_network(3, 2)
        assert _epr_prep_latency(network, (1,)) == DEFAULT_LATENCY.t_epr


class TestAggregatorInternals:
    @pytest.fixture
    def aggregator(self):
        circuit = Circuit(4).cx(0, 2).cx(0, 3).cx(1, 2)
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1})
        return CommAggregator(circuit, mapping)

    def test_pairs_ordered_by_weight(self, aggregator):
        aggregator._build_index(list(aggregator.circuit.gates))
        # qubit 0 toward node 1 and qubit 2 toward node 0 have two remote
        # gates each; ties break on the pair itself.
        assert aggregator._pairs_by_weight_indexed() == [
            (0, 1), (2, 0), (1, 1), (3, 0)]

    def test_pair_index_lists_each_remote_gate_under_both_pairs(self, aggregator):
        gates = list(aggregator.circuit.gates)
        aggregator._build_index(gates)
        pair_gates = {pair: [aggregator._item[handle] for handle in handles]
                      for pair, handles in aggregator._pair_gates.items()}
        assert pair_gates[(0, 1)] == [gates[0], gates[1]]
        assert pair_gates[(2, 0)] == [gates[0], gates[2]]
        assert pair_gates[(3, 0)] == [gates[1]]
        assert (0, 0) not in pair_gates
        # The same handle, not just an equal gate, is filed under both pairs.
        assert aggregator._pair_gates[(0, 1)][0] == \
            aggregator._pair_gates[(2, 0)][0]

    def test_absorbing_a_gate_leaves_both_of_its_pairs(self, aggregator):
        aggregator._build_index(list(aggregator.circuit.gates))
        aggregator._absorb_into_block(aggregator._pair_gates[(0, 1)][0])
        assert aggregator._pairs_by_weight_indexed() == [
            (0, 1), (1, 1), (2, 0), (3, 0)]
        assert len(aggregator._raw_pairs) == 2

    def test_allowed_in_block_rules(self, aggregator):
        remote_qubits = {2, 3}
        assert aggregator._allowed_in_block(Gate("t", (0,)), 0, remote_qubits)
        assert aggregator._allowed_in_block(Gate("cx", (2, 3)), 0, remote_qubits)
        assert not aggregator._allowed_in_block(Gate("cx", (1, 0)), 0, remote_qubits)
        assert not aggregator._allowed_in_block(Gate("measure", (0,)), 0, remote_qubits)
        assert not aggregator._allowed_in_block(Gate("barrier", (0, 1)), 0, remote_qubits)

    def test_allowed_in_block_hub_gate_requires_commutation_mode(self):
        circuit = Circuit(4).cx(0, 2)
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1})
        no_commute = CommAggregator(circuit, mapping, use_commutation=False)
        assert not no_commute._allowed_in_block(Gate("t", (0,)), 0, {2, 3})

    def test_mismatched_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            CommAggregator(Circuit(4), QubitMapping({0: 0, 1: 1}))
