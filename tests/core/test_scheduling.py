"""Unit tests for the communication scheduling pass."""

import hashlib

import pytest

from repro import AutoCommConfig, compile_autocomm
from repro.circuits import qft_circuit
from repro.comm import CommBlock, CommScheme
from repro.core import (
    FusedTPChain,
    aggregate_communications,
    assign_communications,
    fuse_tp_chains,
    schedule_communications,
)
from repro.hardware import DEFAULT_LATENCY, uniform_network
from repro.hardware.topology import apply_topology
from repro.ir import Circuit, Gate, decompose_to_cx
from repro.partition import QubitMapping


def compile_assignment(circuit, mapping):
    return assign_communications(aggregate_communications(circuit, mapping))


def mapping_for(num_qubits, num_nodes):
    per = -(-num_qubits // num_nodes)
    return QubitMapping({q: q // per for q in range(num_qubits)})


class TestScheduleBasics:
    def test_empty_circuit(self):
        network = uniform_network(2, 2)
        assignment = compile_assignment(Circuit(4), mapping_for(4, 2))
        schedule = schedule_communications(assignment, network)
        assert schedule.latency == 0.0
        assert schedule.ops == []

    def test_local_only_circuit_has_no_comm_ops(self):
        network = uniform_network(2, 2)
        circuit = Circuit(4).h(0).cx(0, 1).cx(2, 3)
        schedule = schedule_communications(compile_assignment(circuit, mapping_for(4, 2)),
                                           network)
        assert schedule.num_comm_ops == 0
        assert schedule.latency > 0

    def test_unknown_strategy_rejected(self):
        network = uniform_network(2, 2)
        assignment = compile_assignment(Circuit(4).cx(0, 2), mapping_for(4, 2))
        with pytest.raises(ValueError):
            schedule_communications(assignment, network, strategy="random")

    def test_single_remote_gate_latency(self):
        network = uniform_network(2, 2)
        circuit = Circuit(4).cx(0, 2)
        schedule = schedule_communications(compile_assignment(circuit, mapping_for(4, 2)),
                                           network)
        # EPR prep + one Cat-Comm carrying a single CX.
        expected = (DEFAULT_LATENCY.t_epr + DEFAULT_LATENCY.cat_comm_latency(1))
        assert schedule.latency == pytest.approx(expected)

    def test_ops_cover_all_items(self):
        network = uniform_network(2, 3)
        circuit = Circuit(6).h(0).cx(0, 3).cx(1, 4).cx(2, 5)
        assignment = compile_assignment(circuit, mapping_for(6, 2))
        schedule = schedule_communications(assignment, network)
        assert len(schedule.ops) >= 4

    def test_latency_is_makespan(self):
        network = uniform_network(2, 3)
        circuit = decompose_to_cx(qft_circuit(6))
        schedule = schedule_communications(compile_assignment(circuit, mapping_for(6, 2)),
                                           network)
        assert schedule.latency == pytest.approx(max(op.end for op in schedule.ops))


class TestDependencyCorrectness:
    def test_dependent_ops_do_not_overlap(self):
        network = uniform_network(2, 3)
        circuit = decompose_to_cx(qft_circuit(6))
        assignment = compile_assignment(circuit, mapping_for(6, 2))
        schedule = schedule_communications(assignment, network)
        items = list(assignment.items)
        # Plain-gate items sharing a qubit and appearing in program order must
        # not be scheduled out of order.
        by_index = {op.index: op for op in schedule.ops}
        last_seen = {}
        for index, item in enumerate(items):
            if not isinstance(item, Gate):
                continue
            op = by_index[index]
            for qubit in item.qubits:
                if qubit in last_seen:
                    assert op.start >= by_index[last_seen[qubit]].start - 1e-9
                last_seen[qubit] = index

    def test_comm_qubit_capacity_respected(self):
        network = uniform_network(3, 4)
        circuit = decompose_to_cx(qft_circuit(12))
        assignment = compile_assignment(circuit, mapping_for(12, 3))
        schedule = schedule_communications(assignment, network)
        comm = schedule.comm_ops()
        # At any sampled time, each node hosts at most two live communications
        # (including their EPR preparation window).
        for t in [i * schedule.latency / 200 for i in range(200)]:
            per_node = {0: 0, 1: 0, 2: 0}
            for op in comm:
                if op.start - DEFAULT_LATENCY.t_epr <= t < op.end:
                    for node in op.nodes:
                        per_node[node] += 1
            assert all(count <= 2 for count in per_node.values())


class TestFusion:
    def make_tp_block(self, hub, partner, hub_node, remote_node):
        block = CommBlock(hub_qubit=hub, hub_node=hub_node, remote_node=remote_node)
        block.extend([Gate("cx", (hub, partner)), Gate("cx", (partner, hub))])
        block.scheme = CommScheme.TP
        return block

    def test_fuse_consecutive_tp_blocks_same_hub(self):
        a = self.make_tp_block(0, 2, 0, 1)
        b = self.make_tp_block(0, 4, 0, 2)
        fused = fuse_tp_chains([a, b])
        assert len(fused) == 1
        assert isinstance(fused[0], FusedTPChain)
        assert fused[0].num_teleports() == 3  # n + 1 with n = 2 blocks

    def test_no_fusion_for_different_hubs(self):
        a = self.make_tp_block(0, 2, 0, 1)
        b = self.make_tp_block(1, 3, 0, 1)
        fused = fuse_tp_chains([a, b])
        assert all(isinstance(item, CommBlock) for item in fused)

    def test_no_fusion_across_intervening_hub_gate(self):
        a = self.make_tp_block(0, 2, 0, 1)
        b = self.make_tp_block(0, 3, 0, 1)
        fused = fuse_tp_chains([a, Gate("h", (0,)), b])
        assert not any(isinstance(item, FusedTPChain) for item in fused)

    def test_fusion_ignores_unrelated_gates(self):
        a = self.make_tp_block(0, 2, 0, 1)
        b = self.make_tp_block(0, 3, 0, 1)
        fused = fuse_tp_chains([a, b, Gate("h", (1,))])
        assert any(isinstance(item, FusedTPChain) for item in fused)

    def test_cat_blocks_never_fused(self):
        a = self.make_tp_block(0, 2, 0, 1)
        cat = CommBlock(hub_qubit=0, hub_node=0, remote_node=1,
                        gates=[Gate("cx", (0, 3))])
        cat.scheme = CommScheme.CAT
        fused = fuse_tp_chains([a, cat])
        assert not any(isinstance(item, FusedTPChain) for item in fused)

    def test_non_commuting_intervening_gate_closes_chain(self):
        # h(2) touches a chain qubit (not the hub) and does not commute with
        # the chain's gates, so deferring the pending TP block past it would
        # reorder non-commuting operations.
        a = self.make_tp_block(0, 2, 0, 1)
        b = self.make_tp_block(0, 3, 0, 1)
        fused = fuse_tp_chains([a, Gate("h", (2,)), b])
        assert not any(isinstance(item, FusedTPChain) for item in fused)
        # Program order is preserved: the first TP block stays before h(2).
        assert fused[0] is a

    def test_commuting_intervening_gate_keeps_chain_open(self):
        # rz on a chain qubit commutes with every CX control, so the chain
        # may legally absorb both TP blocks around it.
        a = CommBlock(hub_qubit=0, hub_node=0, remote_node=1,
                      gates=[Gate("cx", (2, 0))], scheme=CommScheme.TP)
        b = CommBlock(hub_qubit=0, hub_node=0, remote_node=1,
                      gates=[Gate("cx", (3, 0))], scheme=CommScheme.TP)
        fused = fuse_tp_chains([a, Gate("rz", (2,), (0.3,)), b])
        assert any(isinstance(item, FusedTPChain) for item in fused)

    def test_barrier_closes_chain(self):
        a = self.make_tp_block(0, 2, 0, 1)
        b = self.make_tp_block(0, 3, 0, 1)
        fused = fuse_tp_chains([a, Gate("barrier", (1,)), b])
        assert not any(isinstance(item, FusedTPChain) for item in fused)

    def test_chain_duration_less_than_sum_of_blocks(self):
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
        a = self.make_tp_block(0, 2, 0, 1)
        b = self.make_tp_block(0, 4, 0, 2)
        chain = FusedTPChain(blocks=[a, b])
        from repro.comm.cost import block_latency
        separate = (block_latency(a, mapping) + block_latency(b, mapping))
        assert chain.duration(mapping, DEFAULT_LATENCY) < separate


class TestPlanMemo:
    @staticmethod
    def _span_names(run):
        from repro.obs.span import Tracer, set_tracing

        previous = set_tracing(True)
        try:
            with Tracer("probe") as tracer:
                run()
        finally:
            set_tracing(previous)
        return [span.name for span in tracer.root.walk()]

    def test_scheduler_reuses_memoised_plans(self):
        from repro.core import plan_schedule

        network = uniform_network(3, 4)
        assignment = compile_assignment(decompose_to_cx(qft_circuit(12)),
                                        mapping_for(12, 3))
        plans = {}

        def build():
            plans[True] = plan_schedule(assignment, True)
            plans[False] = plan_schedule(assignment, False)

        assert {"plan-burst", "plan-plain"} <= set(self._span_names(build))
        names = self._span_names(
            lambda: schedule_communications(assignment, network))
        assert "scheduling" in names
        assert not any(name.startswith("plan-") for name in names)
        for burst, plan in plans.items():
            assert plan_schedule(assignment, burst) is plan

    def test_profiles_shared_only_when_fusion_changes_nothing(self):
        from repro.core import plan_schedule

        network = uniform_network(3, 4)
        unfused = compile_assignment(Circuit(4).h(0).cx(0, 2).cx(1, 3),
                                     mapping_for(4, 2))
        burst = plan_schedule(unfused, True)
        plain = plan_schedule(unfused, False)
        assert all(a is b for a, b in zip(burst.items, plain.items))
        assert burst.op_profiles(network) is plain.op_profiles(network)

        fused = compile_assignment(decompose_to_cx(qft_circuit(12)),
                                   mapping_for(12, 3))
        burst = plan_schedule(fused, True)
        plain = plan_schedule(fused, False)
        assert burst.num_fused_chains > 0
        assert burst.op_profiles(network) is not plain.op_profiles(network)


class TestBarrierPlan:
    @pytest.mark.parametrize("remap,mode,overlap,latency,digest", [
        pytest.param(False, "burst", False, 580.5, "1aa8149db844f412",
                     id="line"),
        pytest.param(True, "burst", True, 601.1000000000001,
                     "bdc37ebd23046e99", id="line-remap-overlap"),
    ])
    def test_schedule_ops_pinned(self, barrier_circuit, remap, mode,
                                 overlap, latency, digest):
        # Every op window and comm-qubit reservation of a schedule whose
        # plan holds zero-duration items (the barriers).
        network = apply_topology(uniform_network(4, 3), "line")
        config = (AutoCommConfig(remap="bursts", overlap=True) if remap
                  else None)
        schedule = compile_autocomm(barrier_circuit, network, config=config,
                                    cache=False).schedule
        ops = [(op.index, op.kind, op.start, op.end, op.nodes,
                op.num_remote_gates, op.num_items) for op in schedule.ops]
        reservations = [(r.node, r.slot, r.start, r.end, r.label)
                        for r in schedule.resources.reservations]
        assert any(op.kind == "gate" and op.start == op.end
                   for op in schedule.ops)
        assert (schedule.mode, schedule.overlap) == (mode, overlap)
        assert schedule.latency == latency
        assert hashlib.sha256(repr((ops, reservations)).encode()
                              ).hexdigest()[:16] == digest


class TestStrategies:
    def test_burst_greedy_never_slower_than_greedy(self):
        network = uniform_network(3, 4)
        circuit = decompose_to_cx(qft_circuit(12))
        mapping = mapping_for(12, 3)
        greedy = schedule_communications(compile_assignment(circuit, mapping),
                                         network, strategy="greedy")
        burst = schedule_communications(compile_assignment(circuit, mapping),
                                        network, strategy="burst-greedy")
        assert burst.latency <= greedy.latency + 1e-9

    def test_commutable_blocks_overlap_under_burst_greedy(self):
        # Two commutable Cat blocks sharing the hub qubit can run in parallel.
        network = uniform_network(3, 2)
        circuit = Circuit(6).cx(0, 2).cx(0, 3).cx(0, 4).cx(0, 5)
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
        assignment = compile_assignment(circuit, mapping)
        schedule = schedule_communications(assignment, network, strategy="burst-greedy")
        comm = schedule.comm_ops()
        assert len(comm) == 2
        overlap = min(comm[0].end, comm[1].end) - max(comm[0].start, comm[1].start)
        assert overlap > 0

    def test_greedy_serialises_blocks_sharing_a_qubit(self):
        network = uniform_network(3, 2)
        circuit = Circuit(6).cx(0, 2).cx(0, 3).cx(0, 4).cx(0, 5)
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
        assignment = compile_assignment(circuit, mapping)
        schedule = schedule_communications(assignment, network, strategy="greedy")
        comm = sorted(schedule.comm_ops(), key=lambda op: op.start)
        assert comm[1].start >= comm[0].end - 1e-9

    def test_fused_chain_reported(self):
        network = uniform_network(3, 2)
        # Bidirectional blocks toward two different nodes with the same hub.
        circuit = (Circuit(6).cx(0, 2).cx(2, 0).cx(0, 3)
                   .cx(0, 4).cx(4, 0).cx(0, 5))
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
        assignment = compile_assignment(circuit, mapping)
        if assignment.num_tp_blocks() >= 2:
            schedule = schedule_communications(assignment, network)
            assert schedule.num_fused_chains >= 1

    def test_ops_cover_every_assignment_item(self):
        network = uniform_network(3, 2)
        circuit = (Circuit(6).cx(0, 2).cx(2, 0).cx(0, 3)
                   .cx(0, 4).cx(4, 0).cx(0, 5))
        mapping = QubitMapping({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
        assignment = compile_assignment(circuit, mapping)
        schedule = schedule_communications(assignment, network)
        assert schedule.num_scheduled_items() == len(assignment.items)

    def test_mode_recorded(self):
        network = uniform_network(2, 3)
        circuit = decompose_to_cx(qft_circuit(6))
        assignment = compile_assignment(circuit, mapping_for(6, 2))
        burst = schedule_communications(assignment, network,
                                        strategy="burst-greedy")
        plain = schedule_communications(assignment, network,
                                        strategy="greedy")
        assert burst.mode in ("burst", "plain")
        assert plain.mode == "plain"


class TestFusedChainItinerary:
    """The fused-chain EPR accounting follows the teleport itinerary.

    Pre-fix, a chain was charged (and, in the simulator, booked) the
    all-pairs closure of its node set — including pairs the hub's
    home -> remote_1 -> ... -> home itinerary never links.
    """

    @staticmethod
    def _chain(remote_nodes, hub_node=0):
        blocks = []
        for remote in remote_nodes:
            block = CommBlock(hub_qubit=0, hub_node=hub_node,
                              remote_node=remote)
            block.scheme = CommScheme.TP
            blocks.append(block)
        return FusedTPChain(blocks=blocks)

    def test_itinerary_orders_stops(self):
        chain = self._chain([1, 3, 2])
        assert chain.itinerary() == (0, 1, 3, 2, 0)
        assert chain.hop_pairs() == ((0, 1), (1, 3), (3, 2), (2, 0))

    def test_colocated_stops_need_no_hop_pair(self):
        chain = self._chain([1, 1, 2])
        assert chain.itinerary() == (0, 1, 1, 2, 0)
        assert chain.hop_pairs() == ((0, 1), (1, 2), (2, 0))

    def test_line_topology_charges_itinerary_not_diameter(self):
        from repro.core.scheduling import (_epr_prep_latency,
                                           prep_latency_for_pairs)
        from repro.hardware import apply_topology

        network = apply_topology(uniform_network(4, 2), "line",
                                 swap_overhead=1.0)
        # Itinerary 0 -> 1 -> 3 -> 2 -> 0 never links the diameter pair
        # (0, 3): its slowest hop spans 2 hops, not 3.
        chain = self._chain([1, 3, 2])
        t_epr = DEFAULT_LATENCY.t_epr
        fixed = prep_latency_for_pairs(network, chain.hop_pairs())
        assert fixed == pytest.approx(2 * t_epr)
        # The preserved pre-fix accounting overcharges via the unused pair.
        legacy = _epr_prep_latency(network, chain.nodes())
        assert legacy == pytest.approx(3 * t_epr)
        assert fixed < legacy

    def test_uniform_latency_unchanged_by_fix(self):
        from repro.core.scheduling import (_epr_prep_latency,
                                           prep_latency_for_pairs)

        network = uniform_network(4, 2)
        chain = self._chain([1, 3, 2])
        assert prep_latency_for_pairs(network, chain.hop_pairs()) \
            == _epr_prep_latency(network, chain.nodes())

    @staticmethod
    def _check_profiles(plan, network):
        """Profiles match the per-op formulas the schedulers used to apply."""
        from repro.core.scheduling import MigrationOp, prep_latency_for_pairs

        profiles = plan.op_profiles(network)
        assert plan.op_profiles(network) is profiles
        assert len(profiles) == len(plan.items)
        for index, (item, profile) in enumerate(zip(plan.items, profiles)):
            item_map = plan.item_mappings[index]
            if profile.kind == "gate":
                assert profile.prep_pairs == ()
                assert (profile.prep, profile.num_remote_gates,
                        profile.label) == (0.0, 0, "")
                continue
            if profile.kind == "tp-chain":
                assert profile.prep_pairs == item.hop_pairs()
                remote = sum(block.num_remote_gates(item_map)
                             for block in item.blocks)
            elif profile.kind == "migration":
                assert isinstance(item, MigrationOp)
                assert profile.prep_pairs == (item.nodes,)
                remote = 0
            else:
                assert profile.prep_pairs == (tuple(item.nodes),)
                remote = item.num_remote_gates(item_map)
            assert profile.prep == prep_latency_for_pairs(
                network, profile.prep_pairs)
            assert profile.num_remote_gates == remote
            assert profile.label == f"{profile.kind}-{index}"
        return profiles

    @pytest.mark.parametrize("burst", [True, False])
    def test_plan_profiles_carry_prep_pairs(self, burst):
        from repro.core import plan_schedule
        from repro.hardware import apply_topology

        network = apply_topology(uniform_network(3, 4), "line")
        circuit = decompose_to_cx(qft_circuit(12))
        mapping = mapping_for(12, 3)
        assignment = compile_assignment(circuit, mapping)
        plan = plan_schedule(assignment, burst=burst)
        # A static plan runs every item under the assignment's mapping.
        assert all(m is mapping for m in plan.item_mappings)
        assert plan.item_phases == [0] * len(plan.items)
        kinds = {p.kind for p in self._check_profiles(plan, network)}
        # The burst plan fuses TP chains; the plain plan never does.
        assert ("tp-chain" in kinds) == burst
        assert {"gate", "tp"} <= kinds

    def test_phased_plan_profiles_use_item_mappings(self):
        from repro import AutoCommConfig, compile_autocomm
        from repro.circuits.suite import BenchmarkSpec
        from repro.core import plan_phased_schedule
        from repro.hardware import apply_topology

        circuit, network = BenchmarkSpec("QFT", 20, 4).build()
        network = apply_topology(network, "line")
        program = compile_autocomm(
            circuit, network, cache=False,
            config=AutoCommConfig(remap="bursts", phase_blocks=4,
                                  overlap=True))
        mapping = program.phases[0].mapping
        plan = plan_phased_schedule(program.phases, program.migrations,
                                    burst=True, overlap=True)
        profiles = self._check_profiles(plan, network)
        assert "migration" in {p.kind for p in profiles}
        # A block and a fused chain of later phases count remote gates
        # differently under phase 0's mapping than under their own.
        moved = set()
        for item, profile in zip(plan.items, profiles):
            blocks = getattr(item, "blocks", [item])
            if profile.kind in ("tp", "cat", "tp-chain") and sum(
                    block.num_remote_gates(mapping)
                    for block in blocks) != profile.num_remote_gates:
                moved.add("tp-chain" if profile.kind == "tp-chain"
                          else "block")
        assert moved == {"block", "tp-chain"}
