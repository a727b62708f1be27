"""Tracing and metrics are observation-only.

The structured-observability guard: compiling with span tracing disabled
and simulating with the metrics registry (and trace recorder) disabled
must produce byte-identical results to the default-on configuration —
same mapping, schemes, metrics, schedule ops, deterministic replay and
stochastic Monte-Carlo streams.  Instrumentation may record, never steer.
"""

import pytest

from repro.baselines import compile_gp_tp, compile_sparse
from repro.circuits import qft_circuit
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import apply_topology, uniform_network
from repro.obs import set_tracing
from repro.persist import dumps_program
from repro.sim import SimulationConfig, run_monte_carlo, simulate_program

NUM_NODES = 4
QUBITS_PER_NODE = 3


@pytest.fixture(params=["never", "bursts"])
def remap(request):
    return request.param


def _compiled(remap):
    network = uniform_network(NUM_NODES, QUBITS_PER_NODE)
    apply_topology(network, "line")
    config = AutoCommConfig(remap=remap, phase_blocks=3)
    return compile_autocomm(qft_circuit(NUM_NODES * QUBITS_PER_NODE), network,
                            config=config)


def _compiled_untraced(remap):
    previous = set_tracing(False)
    try:
        return _compiled(remap)
    finally:
        set_tracing(previous)


class TestCompileEquivalence:
    def test_output_byte_identical_with_tracing_off(self, remap):
        traced = _compiled(remap)
        untraced = _compiled_untraced(remap)

        assert traced.spans is not None
        assert untraced.spans is None

        assert untraced.mapping.as_dict() == traced.mapping.as_dict()
        assert ([b.scheme for b in untraced.blocks]
                == [b.scheme for b in traced.blocks])
        assert untraced.metrics.as_dict() == traced.metrics.as_dict()
        assert ([(op.kind, op.start, op.end) for op in untraced.schedule.ops]
                == [(op.kind, op.start, op.end) for op in traced.schedule.ops])

    def test_span_tree_covers_the_pipeline(self, remap):
        spans = _compiled(remap).spans
        stages = {span.name for span in spans.walk()}
        if remap == "bursts":
            assert "migration-planning" in stages
            assert any(name.startswith("phase-") for name in stages)
        else:
            for expected in ("decompose", "oee-partition", "aggregation",
                             "assignment", "scheduling"):
                assert expected in stages, stages

    def test_stage_durations_sum_within_root(self, remap):
        root = _compiled(remap).spans
        child_total = sum(child.duration for child in root.children)
        assert child_total <= root.duration + 1e-9


@pytest.mark.parametrize("baseline", [compile_sparse, compile_gp_tp],
                         ids=["sparse", "gp-tp"])
class TestBaselineCompileEquivalence:
    """The baselines run AutoComm's compile path, tracer included."""

    @staticmethod
    def _compile(baseline):
        network = uniform_network(NUM_NODES, QUBITS_PER_NODE)
        apply_topology(network, "line")
        return baseline(qft_circuit(NUM_NODES * QUBITS_PER_NODE), network)

    def test_output_byte_identical_with_tracing_off(self, baseline):
        traced = self._compile(baseline)
        previous = set_tracing(False)
        try:
            untraced = self._compile(baseline)
        finally:
            set_tracing(previous)

        assert traced.spans is not None
        assert untraced.spans is None
        assert (dumps_program(untraced, spans=False)
                == dumps_program(traced, spans=False))

    def test_span_tree_covers_the_pipeline(self, baseline):
        stages = {span.name for span in self._compile(baseline).spans.walk()}
        for expected in ("decompose", "oee-partition", "scheduling"):
            assert expected in stages, stages


class TestSimulationEquivalence:
    def test_deterministic_replay_identical_without_metrics(self, remap):
        program = _compiled(remap)
        on = simulate_program(program, SimulationConfig(p_epr=1.0, seed=0))
        off = simulate_program(program, SimulationConfig(
            p_epr=1.0, seed=0, record_metrics=False, record_trace=False))

        assert on.metrics is not None and len(on.metrics) > 0
        assert len(off.metrics) == 0
        assert off.latency == on.latency
        assert ([(op.kind, op.start, op.end) for op in off.ops]
                == [(op.kind, op.start, op.end) for op in on.ops])

    def test_monte_carlo_streams_bit_identical(self, remap):
        program = _compiled(remap)
        on = run_monte_carlo(program, SimulationConfig(
            p_epr=0.5, seed=7, trials=6))
        off = run_monte_carlo(program, SimulationConfig(
            p_epr=0.5, seed=7, trials=6, record_metrics=False,
            record_trace=False))

        assert off.latencies == on.latencies
        assert off.epr_attempts == on.epr_attempts
        assert off.trial_seeds == on.trial_seeds
        assert len(off.metrics) == 0

    def test_monte_carlo_metrics_aggregate_across_trials(self, remap):
        program = _compiled(remap)
        result = run_monte_carlo(program, SimulationConfig(
            p_epr=0.5, seed=7, trials=6))
        metrics = result.metrics
        assert metrics.counter_values().get("sim.trials") == 6
        assert metrics.histogram("sim.latency").count == 6
        # EPR bookkeeping is consistent with the per-trial stream.
        assert (metrics.counter("epr.attempts").value
                == sum(result.epr_attempts))
