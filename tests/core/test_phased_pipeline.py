"""Unit tests for phase-structured compilation internals."""

import pytest

from repro.circuits import qft_circuit, scaled_configurations
from repro.comm.blocks import CommBlock
from repro.core import (AutoCommCompiler, AutoCommConfig, FusedTPChain,
                        MigrationOp, compile_autocomm, plan_phased_schedule,
                        plan_schedule)
from repro.core.pipeline import _phase_circuit, _segment_items
from repro.core.scheduling import _execute_plan
from repro.hardware import apply_topology, uniform_network
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate


def _compiled_remap(phase_blocks=3, kind="line", qubits=12):
    network = uniform_network(4, qubits // 4)
    apply_topology(network, kind)
    return compile_autocomm(
        qft_circuit(qubits), network,
        config=AutoCommConfig(remap="bursts", phase_blocks=phase_blocks))


class TestConfigValidation:
    def test_unknown_remap_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown remap mode"):
            AutoCommCompiler(AutoCommConfig(remap="sometimes"))

    def test_bad_phase_blocks_rejected(self):
        with pytest.raises(ValueError, match="phase_blocks"):
            AutoCommCompiler(AutoCommConfig(remap="bursts", phase_blocks=0))

    def test_remap_label(self):
        compiler = AutoCommCompiler(AutoCommConfig(remap="bursts"))
        assert compiler._compiler_label() == "autocomm-remap"


class TestSegmentation:
    def _items(self, pattern):
        """Build a schedulable item list from 'g' (gate) / 'B' (block)."""
        items = []
        for char in pattern:
            if char == "B":
                items.append(CommBlock(hub_qubit=0, hub_node=0, remote_node=1,
                                       gates=[Gate("cx", (0, 4))]))
            else:
                items.append(Gate("h", (0,)))
        return items

    def test_boundary_before_block_after_quota(self):
        segments = _segment_items(self._items("BBgBB"), phase_blocks=2)
        assert [len(s) for s in segments] == [3, 2]
        assert sum(isinstance(i, CommBlock) for i in segments[0]) == 2

    def test_trailing_gates_join_last_phase(self):
        segments = _segment_items(self._items("BBBgg"), phase_blocks=2)
        assert [len(s) for s in segments] == [2, 3]
        assert isinstance(segments[1][0], CommBlock)

    def test_single_phase_when_under_quota(self):
        segments = _segment_items(self._items("gBg"), phase_blocks=8)
        assert len(segments) == 1

    def test_blockless_program_single_phase(self):
        segments = _segment_items(self._items("ggg"), phase_blocks=1)
        assert len(segments) == 1

    def test_segments_partition_items(self):
        items = self._items("BgBBgBBBg")
        segments = _segment_items(items, phase_blocks=2)
        flattened = [item for segment in segments for item in segment]
        assert flattened == items

    def test_phase_circuit_flattens_blocks(self):
        items = self._items("gB")
        circuit = _phase_circuit(Circuit(8, name="prog"), items, 1)
        assert circuit.name == "prog-phase1"
        assert [g.name for g in circuit] == ["h", "cx"]


def _same_unit(a, b):
    """Same plan item object; fused chains (rebuilt per plan) block by block."""
    if isinstance(a, FusedTPChain):
        return (isinstance(b, FusedTPChain) and len(a.blocks) == len(b.blocks)
                and all(x is y for x, y in zip(a.blocks, b.blocks)))
    return a is b


@pytest.mark.parametrize("spec", scaled_configurations("small"),
                         ids=lambda spec: spec.name)
def test_one_phase_plan_is_static_plan(spec, assert_static_shape):
    """A static program is its one phase, and a phased plan over that phase
    is the static plan: same units, same dependencies, same scheduled
    latency, with barrier and with overlap stitching."""
    circuit, network = spec.build()
    program = compile_autocomm(circuit, network)
    assert_static_shape(program)
    (phase,) = program.phases
    assignment = phase.assignment
    for burst in (True, False):
        static = plan_schedule(assignment, burst)
        latency = _execute_plan(static, network).latency
        for overlap in (False, True):
            phased = plan_phased_schedule([phase], [], burst=burst,
                                          overlap=overlap)
            assert len(phased.items) == len(static.items)
            assert all(_same_unit(a, b)
                       for a, b in zip(phased.items, static.items))
            assert phased.preds == static.preds
            assert phased.num_fused_chains == static.num_fused_chains
            assert _execute_plan(phased, network).latency == latency


class TestPhasedPlan:
    def test_single_phase_plan_matches_static(self):
        network = uniform_network(4, 3)
        apply_topology(network, "line")
        # Huge phase quota -> one phase, no migrations.
        program = compile_autocomm(
            qft_circuit(12), network,
            config=AutoCommConfig(remap="bursts", phase_blocks=10_000))
        assert program.metrics.num_phases == 1
        assert program.metrics.migration_moves == 0
        static_network = uniform_network(4, 3)
        apply_topology(static_network, "line")
        static = compile_autocomm(qft_circuit(12), static_network)
        assert program.metrics.latency == static.metrics.latency
        assert (program.metrics.total_epr_latency
                == static.metrics.total_epr_latency)

    def test_plan_is_memoised(self):
        program = _compiled_remap()
        burst = program.schedule.mode == "burst"
        first = plan_phased_schedule(program.phases, program.migrations,
                                     burst=burst)
        second = plan_phased_schedule(program.phases, program.migrations,
                                      burst=burst)
        assert first is second

    def test_migrations_form_barriers(self):
        program = _compiled_remap()
        plan = plan_phased_schedule(program.phases, program.migrations,
                                    burst=program.schedule.mode == "burst")
        migration_indices = [i for i, item in enumerate(plan.items)
                             if isinstance(item, MigrationOp)]
        assert migration_indices, "expected migrations in this workload"
        for index in migration_indices:
            # A migration waits for the previous phase...
            assert plan.preds[index]
            assert all(p < index for p in plan.preds[index])
        # ... and every item is ordered: no item may precede index 0 items
        # of its own phase barrier (sanity: preds sorted and acyclic).
        for index, plist in enumerate(plan.preds):
            assert all(p < index for p in plist)

    def test_item_mappings_track_phases(self):
        program = _compiled_remap()
        plan = plan_phased_schedule(program.phases, program.migrations,
                                    burst=program.schedule.mode == "burst")
        assert plan.item_mappings is not None
        assert len(plan.item_mappings) == len(plan.items)
        phase_mappings = {id(phase.mapping) for phase in program.phases}
        assert all(id(m) in phase_mappings for m in plan.item_mappings)

    def test_boundary_count_validated(self):
        program = _compiled_remap()
        with pytest.raises(ValueError, match="per phase boundary"):
            plan_phased_schedule(program.phases, [], burst=False)


class TestPhasedProgram:
    def test_blocks_concatenate_phases(self):
        program = _compiled_remap()
        assert program.blocks == [block for phase in program.phases
                                  for block in phase.blocks]

    def test_metrics_aggregate_phase_costs(self):
        program = _compiled_remap()
        costs = [phase.assignment.cost for phase in program.phases]
        assert program.metrics.total_comm == sum(c.total_comm for c in costs)
        assert program.metrics.total_epr_pairs == sum(c.total_epr_pairs
                                                      for c in costs)
        assert program.metrics.peak_rem_cx == max(c.peak_remote_cx
                                                  for c in costs)
        assert program.metrics.num_phases == len(program.phases)

    def test_migration_latency_prices_routed_teleports(self):
        program = _compiled_remap()
        network = program.network
        expected = sum(
            network.epr_latency(m.source, m.target)
            + network.latency.t_teleport
            for boundary in program.migrations for m in boundary)
        assert program.metrics.migration_latency == pytest.approx(expected)

    def test_burst_distribution_pools_phases(self):
        program = _compiled_remap()
        distribution = program.burst_distribution()
        assert distribution[1] == pytest.approx(1.0)
        values = [distribution[x] for x in sorted(distribution)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_summary_reports_phases(self):
        program = _compiled_remap()
        summary = program.summary()
        assert summary["compiler"] == "autocomm-remap"
        assert summary["num_phases"] == program.metrics.num_phases
        assert summary["migration_moves"] == program.metrics.migration_moves


class TestOverlapConfig:
    def test_overlap_requires_remap(self):
        with pytest.raises(ValueError, match='overlap requires'):
            AutoCommCompiler(AutoCommConfig(overlap=True))

    def test_auto_sizing_requires_remap(self):
        with pytest.raises(ValueError, match='phase_sizing'):
            AutoCommCompiler(AutoCommConfig(phase_sizing="auto"))

    def test_unknown_phase_sizing_rejected(self):
        with pytest.raises(ValueError, match="unknown phase sizing"):
            AutoCommCompiler(AutoCommConfig(remap="bursts",
                                            phase_sizing="sometimes"))

    def test_overlap_label(self):
        compiler = AutoCommCompiler(AutoCommConfig(remap="bursts",
                                                   overlap=True))
        assert compiler._compiler_label() == "autocomm-remap-overlap"

    def test_autosize_label(self):
        compiler = AutoCommCompiler(AutoCommConfig(remap="bursts",
                                                   overlap=True,
                                                   phase_sizing="auto"))
        assert compiler._compiler_label() == "autocomm-remap-overlap-autosize"


class TestAutoSizing:
    def _compiled_auto(self, phase_blocks=3, kind="line", qubits=12):
        network = uniform_network(4, qubits // 4)
        apply_topology(network, kind)
        return compile_autocomm(
            qft_circuit(qubits), network,
            config=AutoCommConfig(remap="bursts", phase_blocks=phase_blocks,
                                  phase_sizing="auto"))

    def test_auto_sizing_compiles_and_verifies(self):
        program = self._compiled_auto()
        assert program.metrics.num_phases >= 1
        assert program.compiler == "autocomm-remap-autosize"

    def test_segments_partition_items_and_respect_slack(self):
        from repro.core.pipeline import (_phase_circuit, _segment_items_auto,
                                         _segment_items)
        from repro.partition import oee_partition
        network = uniform_network(4, 3)
        apply_topology(network, "line")
        circuit = qft_circuit(12)
        from repro.ir.decompose import decompose_to_cx
        working = decompose_to_cx(circuit)
        mapping = oee_partition(working, network).mapping
        from repro.core import aggregate_communications
        base = aggregate_communications(working, mapping)
        phase_blocks = 3
        segments, decisions = _segment_items_auto(
            base.items, phase_blocks, working, network, mapping)
        flattened = [item for segment in segments for item in segment]
        assert flattened == list(base.items)
        slack = max(1, phase_blocks // 2)
        for decision in decisions:
            assert (phase_blocks - slack <= decision["chosen_blocks"]
                    <= phase_blocks + slack)
            costs = [c["migration_cost"] for c in decision["candidates"]]
            assert decision["migration_cost"] == min(costs)

    def test_auto_sizing_decisions_prefer_cheaper_boundaries(self):
        fixed = _compiled_remap(phase_blocks=3)
        auto = self._compiled_auto(phase_blocks=3)
        # The sizing search minimises each boundary's priced migration
        # bill, so across the program the auto compile never pays more
        # migration latency than it priced; both must stay legal programs.
        assert auto.metrics.migration_latency >= 0.0
        assert auto.metrics.num_phases >= 1
        assert fixed.metrics.num_phases >= 1
