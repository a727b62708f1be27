"""Phase-structured compilation equivalence and replay guarantees.

Three acceptance-level invariants of dynamic inter-phase remapping:

* **Never-remap equivalence** — compiling with an explicit
  ``AutoCommConfig(remap="never")`` is byte-identical to the default
  pipeline on every supported topology: same mapping, same schemes, same
  metrics, same schedule ops, same deterministic replay and same stochastic
  Monte-Carlo stream.
* **Bursts-remap replay exactness** — with ``remap="bursts"`` the
  discrete-event replay at ``p_epr = 1.0`` reproduces the analytical
  schedule latency *exactly*, op for op, on every supported topology
  (migration teleports included).
* **Remap pays off** — on the committed phase-shifted workload, dynamic
  remapping strictly lowers both ``total_epr_latency`` and the scheduled
  program latency versus the static mapping.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.circuits import qft_circuit
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import SUPPORTED_TOPOLOGIES, apply_topology, uniform_network
from repro.sim import (SimulationConfig, run_monte_carlo, simulate_program,
                       validate_schedule)

NUM_NODES = 4
QUBITS_PER_NODE = 3

# The committed "remap pays off" scenario lives in the worked example; the
# test imports the builder so the two can never drift apart.
_EXAMPLE_PATH = (Path(__file__).resolve().parents[2] / "examples"
                 / "dynamic_remapping_study.py")
_spec = importlib.util.spec_from_file_location("dynamic_remapping_study",
                                               _EXAMPLE_PATH)
_example = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_example)
phase_shift_circuit = _example.phase_shift_circuit


def _compiled(kind, config=None):
    network = uniform_network(NUM_NODES, QUBITS_PER_NODE)
    apply_topology(network, kind)
    return compile_autocomm(qft_circuit(NUM_NODES * QUBITS_PER_NODE), network,
                            config=config)


class TestRemapNeverEquivalence:
    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_compile_byte_identical(self, kind, assert_static_shape):
        plain = _compiled(kind)
        explicit = _compiled(kind, AutoCommConfig(remap="never"))
        assert explicit.mapping.as_dict() == plain.mapping.as_dict()
        assert ([b.scheme for b in explicit.blocks]
                == [b.scheme for b in plain.blocks])
        assert explicit.metrics.as_dict() == plain.metrics.as_dict()
        assert ([(op.kind, op.start, op.end) for op in explicit.schedule.ops]
                == [(op.kind, op.start, op.end) for op in plain.schedule.ops])
        assert_static_shape(plain)
        assert_static_shape(explicit)
        assert explicit.metrics.num_phases == 1
        assert explicit.metrics.migration_moves == 0

    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_deterministic_replay_byte_identical(self, kind):
        plain = simulate_program(_compiled(kind))
        explicit = simulate_program(_compiled(kind, AutoCommConfig(remap="never")))
        assert explicit.latency == plain.latency
        assert ([(op.kind, op.prep_start, op.start, op.end, op.epr_pairs)
                 for op in explicit.ops]
                == [(op.kind, op.prep_start, op.start, op.end, op.epr_pairs)
                    for op in plain.ops])

    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_stochastic_stream_byte_identical(self, kind):
        config = SimulationConfig(p_epr=0.6, seed=123, trials=4,
                                  record_trace=False)
        plain = run_monte_carlo(_compiled(kind), config)
        explicit = run_monte_carlo(_compiled(kind, AutoCommConfig(remap="never")),
                                   config)
        assert explicit.latencies == plain.latencies
        assert explicit.epr_attempts == plain.epr_attempts


class TestRemapBurstsReplayExactness:
    @pytest.mark.parametrize("kind", SUPPORTED_TOPOLOGIES)
    def test_deterministic_replay_matches_analytical(self, kind):
        program = _compiled(kind, AutoCommConfig(remap="bursts",
                                                 phase_blocks=3))
        assert program.metrics.num_phases > 1
        report = validate_schedule(program)
        assert report.matches, report.describe()
        assert report.latency_delta == 0.0
        assert report.max_op_end_delta == 0.0

    @pytest.mark.parametrize("kind", ("line", "grid"))
    def test_monte_carlo_reproducible(self, kind):
        program = _compiled(kind, AutoCommConfig(remap="bursts",
                                                 phase_blocks=3))
        config = SimulationConfig(p_epr=0.7, seed=7, trials=3,
                                  record_trace=False)
        first = run_monte_carlo(program, config)
        second = run_monte_carlo(program, config)
        assert first.latencies == second.latencies
        assert first.epr_attempts == second.epr_attempts

    def test_migration_ops_executed_as_teleports(self):
        """Replayed executions generate the migrations' extra EPR pairs."""
        program = _compiled("line", AutoCommConfig(remap="bursts",
                                                   phase_blocks=3))
        assert program.metrics.migration_moves > 0
        result = simulate_program(program)
        migration_ops = [op for op in result.ops if op.kind == "migration"]
        assert len(migration_ops) == program.metrics.migration_moves
        assert all(op.epr_pairs >= 1 for op in migration_ops)


class TestRemapPaysOff:
    def test_remap_strictly_lowers_epr_latency_and_latency(self):
        circuit = phase_shift_circuit()
        static_net = uniform_network(4, 2)
        apply_topology(static_net, "line")
        static = compile_autocomm(circuit, static_net)

        remap_net = uniform_network(4, 2)
        apply_topology(remap_net, "line")
        remapped = compile_autocomm(
            circuit, remap_net,
            config=AutoCommConfig(remap="bursts", phase_blocks=4))

        assert remapped.metrics.migration_moves > 0
        assert remapped.metrics.num_phases > 1
        assert (remapped.metrics.total_epr_latency
                < static.metrics.total_epr_latency)
        assert remapped.metrics.latency < static.metrics.latency
        report = validate_schedule(remapped)
        assert report.matches, report.describe()

    def test_phases_cover_every_gate(self):
        circuit = phase_shift_circuit()
        network = uniform_network(4, 2)
        apply_topology(network, "line")
        program = compile_autocomm(
            circuit, network,
            config=AutoCommConfig(remap="bursts", phase_blocks=4))
        phase_gates = sum(len(phase.aggregation.circuit)
                          for phase in program.phases)
        assert phase_gates == len(program.circuit)

    def test_migrations_match_mapping_deltas(self):
        circuit = phase_shift_circuit()
        network = uniform_network(4, 2)
        apply_topology(network, "line")
        program = compile_autocomm(
            circuit, network,
            config=AutoCommConfig(remap="bursts", phase_blocks=4))
        for boundary, moves in enumerate(program.migrations):
            before = program.phases[boundary].mapping
            after = program.phases[boundary + 1].mapping
            expected = {q for q in range(circuit.num_qubits)
                        if before.node_of(q) != after.node_of(q)}
            assert {m.qubit for m in moves} == expected
            for move in moves:
                assert move.source == before.node_of(move.qubit)
                assert move.target == after.node_of(move.qubit)


class TestZeroBubbleBoundaries:
    """Overlapped boundaries beat the barrier on the committed scenario."""

    def _compile(self, overlap):
        circuit = phase_shift_circuit()
        network = uniform_network(4, 2)
        apply_topology(network, "line")
        return compile_autocomm(
            circuit, network,
            config=AutoCommConfig(remap="bursts", phase_blocks=4,
                                  overlap=overlap))

    def test_overlap_strictly_reduces_latency(self):
        barrier = self._compile(overlap=False)
        overlapped = self._compile(overlap=True)
        assert barrier.metrics.latency == pytest.approx(170.9, abs=0.1)
        assert overlapped.metrics.latency < barrier.metrics.latency
        assert (overlapped.metrics.boundary_bubble
                < barrier.metrics.boundary_bubble)
        assert overlapped.schedule.overlap

    def test_overlap_replay_is_exact(self):
        overlapped = self._compile(overlap=True)
        report = validate_schedule(overlapped)
        assert report.matches, report.describe()
        replay = simulate_program(overlapped, SimulationConfig())
        assert replay.latency == pytest.approx(overlapped.metrics.latency,
                                               abs=1e-9)

    def test_overlap_monte_carlo_never_slower_mean(self):
        barrier = self._compile(overlap=False)
        overlapped = self._compile(overlap=True)
        config = SimulationConfig(p_epr=1.0, seed=7, trials=3,
                                  record_trace=False)
        barrier_mc = run_monte_carlo(barrier, config).summary()
        overlap_mc = run_monte_carlo(overlapped, config).summary()
        assert overlap_mc["mean"] <= barrier_mc["mean"] + 1e-9
