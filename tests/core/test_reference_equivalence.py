"""Equivalence of the optimized compile pipeline and its preserved reference.

The hot-path overhaul (indexed aggregation, pair-level commutation cache,
memoised plan construction, profile-driven scheduling) must be a pure
performance change: the optimized passes have to produce byte-identical
results to the preserved pre-optimization implementations in
``repro.core.aggregation_reference`` / ``assignment_reference`` /
``scheduling_reference``.  These tests diff the two pipelines structurally
over several benchmark families, ablations and mappings.
"""

import pytest

from repro.circuits import (bv_circuit, qaoa_maxcut_circuit, qft_circuit,
                            random_clifford_t_circuit, uccsd_circuit)
from repro.comm.blocks import CommBlock
from repro.core import (
    aggregate_communications,
    aggregate_communications_reference,
    assign_communications,
    assign_communications_reference,
    plan_schedule,
    plan_schedule_reference,
    schedule_communications,
    schedule_communications_reference,
)
from repro.hardware import uniform_network
from repro.ir import decompose_to_cx
from repro.obs import Tracer
from repro.partition import oee_partition, round_robin_mapping


def _items_signature(items):
    """Structural signature of an aggregated item list."""
    signature = []
    for item in items:
        if isinstance(item, CommBlock):
            signature.append(("block", item.hub_qubit, item.hub_node,
                              item.remote_node, tuple(item.gates)))
        else:
            signature.append(("gate", item))
    return signature


def _prepare(builder, num_qubits, num_nodes, partitioner="oee"):
    circuit = decompose_to_cx(builder(num_qubits))
    network = uniform_network(num_nodes, -(-num_qubits // num_nodes))
    if partitioner == "oee":
        mapping = oee_partition(circuit, network).mapping
    else:
        mapping = round_robin_mapping(num_qubits, network)
    return circuit, network, mapping


CASES = [
    pytest.param(qft_circuit, 16, 4, id="qft16"),
    pytest.param(bv_circuit, 20, 4, id="bv20"),
    pytest.param(lambda n: qaoa_maxcut_circuit(n, layers=1, degree=3), 18, 3,
                 id="qaoa18"),
    pytest.param(uccsd_circuit, 8, 4, id="uccsd8"),
    pytest.param(lambda n: random_clifford_t_circuit(n, num_gates=160, seed=11),
                 14, 3, id="random14"),
]


class TestAggregationEquivalence:
    @pytest.mark.parametrize("builder,num_qubits,num_nodes", CASES)
    def test_items_identical(self, builder, num_qubits, num_nodes):
        circuit, _, mapping = _prepare(builder, num_qubits, num_nodes)
        optimized = aggregate_communications(circuit, mapping)
        reference = aggregate_communications_reference(circuit, mapping)
        assert _items_signature(optimized.items) == \
            _items_signature(reference.items)
        assert optimized.block_sizes() == reference.block_sizes()
        assert optimized.to_circuit().gates == reference.to_circuit().gates

    @pytest.mark.parametrize("use_commutation", [True, False])
    def test_ablation_parameters(self, use_commutation):
        circuit, _, mapping = _prepare(qft_circuit, 12, 3)
        with Tracer("t") as tracer:
            optimized = aggregate_communications(
                circuit, mapping, use_commutation=use_commutation)
        # A pair's pass absorbs all of its pair's raw gates, so one sweep
        # is the whole search (the reference's three find nothing more).
        assert tracer.root.find("aggregation").counters["sweeps"] == 1
        reference = aggregate_communications_reference(
            circuit, mapping, use_commutation=use_commutation)
        assert _items_signature(optimized.items) == \
            _items_signature(reference.items)

    def test_round_robin_mapping(self):
        circuit, _, mapping = _prepare(bv_circuit, 16, 4,
                                       partitioner="round-robin")
        optimized = aggregate_communications(circuit, mapping)
        reference = aggregate_communications_reference(circuit, mapping)
        assert _items_signature(optimized.items) == \
            _items_signature(reference.items)


class TestFullPipelineEquivalence:
    @pytest.mark.parametrize("builder,num_qubits,num_nodes", CASES)
    def test_metrics_identical(self, builder, num_qubits, num_nodes):
        circuit, network, mapping = _prepare(builder, num_qubits, num_nodes)

        opt_assignment = assign_communications(
            aggregate_communications(circuit, mapping))
        opt_schedule = schedule_communications(opt_assignment, network)

        ref_assignment = assign_communications_reference(
            aggregate_communications_reference(circuit, mapping))
        ref_schedule = schedule_communications_reference(
            ref_assignment, network)

        assert opt_assignment.cost == ref_assignment.cost
        assert opt_assignment.pattern_histogram == \
            ref_assignment.pattern_histogram
        assert opt_assignment.scheme_histogram == \
            ref_assignment.scheme_histogram
        assert [b.scheme for b in opt_assignment.blocks] == \
            [b.scheme for b in ref_assignment.blocks]
        assert opt_schedule.latency == ref_schedule.latency
        assert opt_schedule.mode == ref_schedule.mode
        assert opt_schedule.num_comm_ops == ref_schedule.num_comm_ops
        assert opt_schedule.num_fused_chains == ref_schedule.num_fused_chains

    @pytest.mark.parametrize("burst", [True, False])
    def test_plans_identical(self, burst):
        circuit, network, mapping = _prepare(qft_circuit, 16, 4)
        assignment = assign_communications(
            aggregate_communications(circuit, mapping))
        optimized = plan_schedule(assignment, burst=burst)
        reference = plan_schedule_reference(assignment, burst=burst)
        assert optimized.preds == reference.preds
        assert optimized.num_fused_chains == reference.num_fused_chains
        assert len(optimized.items) == len(reference.items)

    def test_plan_schedule_is_memoised(self):
        circuit, network, mapping = _prepare(qft_circuit, 12, 3)
        assignment = assign_communications(
            aggregate_communications(circuit, mapping))
        assert plan_schedule(assignment, burst=True) is \
            plan_schedule(assignment, burst=True)
        assert plan_schedule(assignment, burst=True) is not \
            plan_schedule(assignment, burst=False)
