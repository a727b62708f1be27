"""Unit tests for burst-communication blocks and their pattern analysis."""

import pytest

from repro.comm import CommBlock, CommPattern, CommScheme, cat_comm_segments
from repro.ir import Gate
from repro.partition import QubitMapping


@pytest.fixture
def mapping():
    # Node 0: qubits 0-2, node 1: qubits 3-5.
    return QubitMapping({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})


def make_block(gates, hub=0, hub_node=0, remote_node=1):
    block = CommBlock(hub_qubit=hub, hub_node=hub_node, remote_node=remote_node)
    block.extend(gates)
    return block


class TestContent:
    def test_remote_gates_and_partners(self, mapping):
        block = make_block([
            Gate("cx", (0, 3)),
            Gate("rz", (3,), (0.1,)),
            Gate("cx", (0, 4)),
        ])
        assert block.num_remote_gates(mapping) == 2
        assert [g.qubits for g in block.remote_gates(mapping)] == [(0, 3),
                                                                  (0, 4)]
        assert block.touched_qubits() == (0, 3, 4)
        assert len(block) == 3

    def test_nodes(self, mapping):
        block = make_block([Gate("cx", (0, 3))])
        assert block.nodes == (0, 1)

    def test_local_gates_not_counted_as_remote(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (3, 4))])
        assert block.num_remote_gates(mapping) == 1


class TestPatternClassification:
    def test_unidirectional_control(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (0, 4))])
        assert block.pattern(mapping) is CommPattern.UNIDIRECTIONAL_CONTROL

    def test_unidirectional_target(self, mapping):
        block = make_block([Gate("cx", (3, 0)), Gate("cx", (4, 0))])
        assert block.pattern(mapping) is CommPattern.UNIDIRECTIONAL_TARGET

    def test_bidirectional(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (4, 0))])
        assert block.pattern(mapping) is CommPattern.BIDIRECTIONAL

    def test_symmetric_diagonal_counts_as_control(self, mapping):
        block = make_block([Gate("rzz", (0, 3), (0.4,)), Gate("cx", (0, 4))])
        assert block.pattern(mapping) is CommPattern.UNIDIRECTIONAL_CONTROL


class TestBlockingGates:
    def test_diagonal_hub_gate_does_not_block_control_pattern(self, mapping):
        block = make_block([
            Gate("cx", (0, 3)), Gate("rz", (0,), (0.3,)), Gate("cx", (0, 4)),
        ])
        assert block.cat_comm_cost(mapping) == 1

    def test_hadamard_on_hub_blocks_control_pattern(self, mapping):
        block = make_block([
            Gate("cx", (0, 3)), Gate("h", (0,)), Gate("cx", (0, 4)),
        ])
        assert block.cat_comm_cost(mapping) == 2

    def test_tdg_on_hub_blocks_control_pattern(self, mapping):
        # The Figure 8 block-3 case: T† between two remote CX gates.
        block = make_block([
            Gate("cx", (0, 3)), Gate("tdg", (0,)), Gate("cx", (0, 4)),
        ])
        # Tdg is diagonal, so it does NOT block a control-pattern block.
        assert block.cat_comm_cost(mapping) == 1

    def test_tdg_on_hub_blocks_target_pattern(self, mapping):
        block = make_block([
            Gate("cx", (3, 0)), Gate("tdg", (0,)), Gate("cx", (4, 0)),
        ])
        assert block.cat_comm_cost(mapping) == 2

    def test_x_on_hub_transparent_for_target_pattern(self, mapping):
        block = make_block([
            Gate("cx", (3, 0)), Gate("x", (0,)), Gate("cx", (4, 0)),
        ])
        assert block.cat_comm_cost(mapping) == 1

    def test_partner_side_gates_never_block(self, mapping):
        block = make_block([
            Gate("cx", (0, 3)), Gate("h", (3,)), Gate("t", (4,)),
            Gate("cx", (3, 4)), Gate("cx", (0, 4)),
        ])
        assert block.cat_comm_cost(mapping) == 1

    def test_leading_and_trailing_hub_gates_do_not_block(self, mapping):
        block = make_block([
            Gate("h", (0,)), Gate("cx", (0, 3)), Gate("cx", (0, 4)), Gate("h", (0,)),
        ])
        assert block.cat_comm_cost(mapping) == 1

    def test_single_remote_gate_never_blocked(self, mapping):
        block = make_block([Gate("cx", (0, 3))])
        assert block.cat_comm_cost(mapping) == 1


class TestCatSegments:
    def test_direction_change_starts_new_segment(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (3, 0)), Gate("cx", (0, 4))])
        segments = cat_comm_segments(block, mapping)
        assert len(segments) == 3

    def test_same_direction_one_segment(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (0, 4)), Gate("cx", (0, 5))])
        assert len(cat_comm_segments(block, mapping)) == 1

    def test_blocked_control_pattern_two_segments(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("h", (0,)), Gate("cx", (0, 4))])
        assert len(cat_comm_segments(block, mapping)) == 2

    def test_bidirectional_costs_more_than_tp(self, mapping):
        block = make_block([
            Gate("cx", (0, 3)), Gate("cx", (3, 0)), Gate("cx", (0, 4)), Gate("cx", (4, 0)),
        ])
        assert block.cat_comm_cost(mapping) >= 3
        assert block.tp_comm_cost() == 2


class TestCosts:
    def test_epr_cost_cat(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (0, 4))])
        block.scheme = CommScheme.CAT
        assert block.epr_cost(mapping) == 1

    def test_epr_cost_tp(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (3, 0))])
        block.scheme = CommScheme.TP
        assert block.epr_cost(mapping) == 2

    def test_epr_cost_unassigned_takes_minimum(self, mapping):
        block = make_block([Gate("cx", (0, 3)), Gate("cx", (3, 0)), Gate("cx", (0, 4))])
        assert block.epr_cost(mapping) == 2  # TP wins over 3 Cat segments

    def test_repr_mentions_scheme(self, mapping):
        block = make_block([Gate("cx", (0, 3))])
        assert "unassigned" in repr(block)
        block.scheme = CommScheme.CAT
        assert "cat" in repr(block)
