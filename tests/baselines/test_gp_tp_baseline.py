"""Unit tests for the GP-TP (qubit movement) baseline compiler."""

import pytest

from repro import compile_autocomm, compile_gp_tp
from repro.circuits import bv_circuit, qaoa_maxcut_circuit, qft_circuit
from repro.comm import CommScheme
from repro.hardware import uniform_network
from repro.ir import Circuit
from repro.partition import QubitMapping


class TestGPTPCompiler:
    def test_two_comms_per_swap(self):
        circuit = Circuit(4).cx(0, 2)
        network = uniform_network(2, 2)
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1}, network)
        program = compile_gp_tp(circuit, network, mapping=mapping)
        assert program.metrics.total_comm == 2
        assert program.metrics.tp_comm == 2

    def test_no_movement_for_local_circuit(self):
        circuit = Circuit(4).cx(0, 1).cx(2, 3)
        network = uniform_network(2, 2)
        program = compile_gp_tp(circuit, network)
        assert program.metrics.total_comm == 0
        assert program.metrics.peak_rem_cx == 0.0

    def test_swap_blocks_are_tp(self):
        circuit = qft_circuit(8)
        network = uniform_network(2, 4)
        program = compile_gp_tp(circuit, network)
        assert all(block.scheme is CommScheme.TP for block in program.blocks)

    def test_consecutive_gates_on_moved_pair_need_one_move(self):
        # After moving q0 next to q2, repeated interactions are free.
        circuit = Circuit(4).cx(0, 2).cx(0, 2).cx(2, 0).cx(0, 2)
        network = uniform_network(2, 2)
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1}, network)
        program = compile_gp_tp(circuit, network, mapping=mapping)
        assert program.metrics.total_comm == 2

    def test_ping_pong_costs_two_moves(self):
        # q0 must visit node 1 and node 2 alternately: at least two moves.
        circuit = Circuit(6).cx(0, 2).cx(0, 4).cx(0, 2)
        network = uniform_network(3, 2)
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}, network)
        program = compile_gp_tp(circuit, network, mapping=mapping)
        assert program.metrics.total_comm >= 4

    def test_peak_rem_cx_is_one_and_a_half(self):
        circuit = qft_circuit(8)
        network = uniform_network(2, 4)
        program = compile_gp_tp(circuit, network)
        assert program.metrics.peak_rem_cx == 1.5

    def test_compiler_label(self):
        network = uniform_network(2, 4)
        assert compile_gp_tp(bv_circuit(8), network).compiler == "gp-tp"

    def test_lookahead_zero_still_works(self):
        circuit = qft_circuit(8)
        network = uniform_network(2, 4)
        program = compile_gp_tp(circuit, network, lookahead=0)
        assert program.metrics.total_comm > 0

    def test_displacement_keeps_node_loads_balanced(self):
        circuit = qft_circuit(8)
        network = uniform_network(2, 4)
        program = compile_gp_tp(circuit, network)
        # Movement is modelled as swaps, so per-node qubit counts are constant;
        # indirectly verified by the compile finishing and producing blocks
        # whose two endpoints are always distinct nodes.
        for block in program.blocks:
            assert block.hub_node != block.remote_node


class TestGPTPVsAutoComm:
    @pytest.mark.parametrize("builder,num_qubits,num_nodes", [
        (qft_circuit, 12, 3),
        (bv_circuit, 12, 3),
        (qaoa_maxcut_circuit, 12, 3),
    ])
    def test_autocomm_uses_fewer_comms(self, builder, num_qubits, num_nodes):
        per_node = -(-num_qubits // num_nodes)
        circuit = builder(num_qubits)
        network = uniform_network(num_nodes, per_node)
        mapping = QubitMapping({q: q // per_node for q in range(num_qubits)}, network)
        autocomm = compile_autocomm(circuit, network, mapping=mapping)
        gp_tp = compile_gp_tp(circuit, network, mapping=mapping)
        assert autocomm.metrics.total_comm <= gp_tp.metrics.total_comm

    def test_gp_tp_carries_less_information_per_comm(self):
        circuit = qft_circuit(12)
        network = uniform_network(3, 4)
        autocomm = compile_autocomm(circuit, network)
        gp_tp = compile_gp_tp(circuit, network)
        assert gp_tp.metrics.peak_rem_cx < autocomm.metrics.peak_rem_cx
