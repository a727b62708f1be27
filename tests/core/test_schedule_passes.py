"""Unit tests for the barrier and overlap phase stitches."""

from repro.circuits import qft_circuit
from repro.core import (AutoCommConfig, MigrationOp, compile_autocomm,
                        plan_phased_schedule)
from repro.core.scheduling import _execute_plan
from repro.hardware import apply_topology, uniform_network


def _compiled_remap(phase_blocks=3, kind="line", qubits=12, overlap=False):
    network = uniform_network(4, qubits // 4)
    apply_topology(network, kind)
    program = compile_autocomm(
        qft_circuit(qubits), network,
        config=AutoCommConfig(remap="bursts", phase_blocks=phase_blocks,
                              overlap=overlap))
    return program, network


class TestStitchPasses:
    def _plans(self):
        program, network = _compiled_remap()
        barrier = plan_phased_schedule(program.phases, program.migrations,
                                       burst=True, overlap=False)
        overlapped = plan_phased_schedule(program.phases, program.migrations,
                                          burst=True, overlap=True)
        return barrier, overlapped, program, network

    def test_same_items_either_stitch(self):
        barrier, overlapped, _, _ = self._plans()
        assert len(barrier.items) == len(overlapped.items)
        assert [type(a) for a in barrier.items] == \
               [type(b) for b in overlapped.items]
        assert barrier.item_phases == overlapped.item_phases

    def test_item_phases_cover_every_phase(self):
        barrier, _, program, _ = self._plans()
        compute_phases = {phase for item, phase in
                          zip(barrier.items, barrier.item_phases)
                          if not isinstance(item, MigrationOp)}
        assert compute_phases == set(range(len(program.phases)))
        for item, phase in zip(barrier.items, barrier.item_phases):
            if isinstance(item, MigrationOp):
                # Migrations carry the phase they move into.
                assert 1 <= phase < len(program.phases)

    def test_overlap_migration_preds_touch_only_its_qubit(self):
        from repro.core.scheduling import _item_qubits
        _, overlapped, program, _ = self._plans()
        num_qubits = program.circuit.num_qubits
        checked = 0
        for index, item in enumerate(overlapped.items):
            if not isinstance(item, MigrationOp):
                continue
            for pred in overlapped.preds[index]:
                pred_item = overlapped.items[pred]
                if isinstance(pred_item, MigrationOp):
                    assert pred_item.qubit == item.qubit
                else:
                    assert item.qubit in _item_qubits(pred_item, num_qubits)
                checked += 1
        assert checked > 0

    def test_overlap_never_worse_when_executed(self):
        barrier, overlapped, _, network = self._plans()
        barrier_latency = _execute_plan(barrier, network).latency
        overlap_latency = _execute_plan(overlapped, network).latency
        assert overlap_latency <= barrier_latency + 1e-9


class TestPlannedOverlap:
    def test_plan_records_overlap_and_phases(self):
        program, _ = _compiled_remap(overlap=True)
        plan = plan_phased_schedule(program.phases, program.migrations,
                                    burst=True, overlap=True)
        assert plan.overlap
        assert plan.item_phases is not None
        assert len(plan.item_phases) == len(plan.items)

    def test_overlap_variants_memoised_separately(self):
        program, _ = _compiled_remap()
        barrier = plan_phased_schedule(program.phases, program.migrations,
                                       burst=True, overlap=False)
        overlapped = plan_phased_schedule(program.phases, program.migrations,
                                          burst=True, overlap=True)
        assert barrier is not overlapped
        assert barrier is plan_phased_schedule(
            program.phases, program.migrations, burst=True, overlap=False)
        assert overlapped is plan_phased_schedule(
            program.phases, program.migrations, burst=True, overlap=True)

    def test_compiled_overlap_schedule_flagged(self):
        program, _ = _compiled_remap(overlap=True)
        assert program.schedule.overlap
        assert program.compiler == "autocomm-remap-overlap"
        assert program.metrics.boundary_bubble >= 0.0

    def test_overlap_never_worse_through_pipeline(self):
        barrier, _ = _compiled_remap()
        overlapped, _ = _compiled_remap(overlap=True)
        assert overlapped.metrics.latency <= barrier.metrics.latency + 1e-9
        assert (overlapped.metrics.boundary_bubble
                <= barrier.metrics.boundary_bubble + 1e-9)
