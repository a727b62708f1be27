"""Process-parallel Monte-Carlo: identical output for any worker count.

Every trial's randomness comes only from its own seed (derived from the
master generator in the parent), so chunking trials across a
``ProcessPoolExecutor`` and merging the per-worker metric registries must
reproduce the sequential run exactly: latencies, attempts, trial seeds,
counters, gauges, histogram percentiles and ``top_counters`` order.
"""

import pickle
from dataclasses import replace

import pytest

from repro.circuits import qft_circuit
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import apply_topology, uniform_network
from repro.sim import SimulationConfig, run_monte_carlo
from repro.sim.engine import _chunk_seeds, plan_for_program


@pytest.fixture(scope="module")
def program():
    network = uniform_network(4, 3)
    apply_topology(network, "line")
    return compile_autocomm(qft_circuit(12), network)


@pytest.fixture(scope="module")
def phased_program():
    network = uniform_network(4, 3)
    apply_topology(network, "line")
    return compile_autocomm(qft_circuit(12), network,
                            config=AutoCommConfig(remap="bursts",
                                                  phase_blocks=3))


BASE = SimulationConfig(p_epr=0.6, seed=11, trials=12)


class TestChunking:
    def test_chunks_partition_seeds_in_order(self):
        seeds = list(range(10))
        chunks = _chunk_seeds(seeds, 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert [s for chunk in chunks for s in chunk] == seeds

    def test_single_worker_single_chunk(self):
        assert _chunk_seeds([5, 6], 1) == [[5, 6]]


class TestParallelEquality:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_identical_to_sequential(self, program, workers):
        sequential = run_monte_carlo(program, BASE)
        parallel = run_monte_carlo(program, replace(BASE, workers=workers))
        assert parallel.latencies == sequential.latencies
        assert parallel.epr_attempts == sequential.epr_attempts
        assert parallel.trial_seeds == sequential.trial_seeds
        assert parallel.metrics.as_dict() == sequential.metrics.as_dict()
        assert parallel.analytical_latency == sequential.analytical_latency

    def test_phased_program_identical(self, phased_program):
        sequential = run_monte_carlo(phased_program, BASE)
        parallel = run_monte_carlo(phased_program, replace(BASE, workers=3))
        assert parallel.latencies == sequential.latencies
        assert parallel.epr_attempts == sequential.epr_attempts
        assert parallel.metrics.as_dict() == sequential.metrics.as_dict()

    def test_merged_registry_percentiles_and_top_counters(self, program):
        """Satellite: lossless merge under process-pool aggregation."""
        sequential = run_monte_carlo(program, BASE)
        parallel = run_monte_carlo(program, replace(BASE, workers=4))
        seq_reg, par_reg = sequential.metrics, parallel.metrics
        assert par_reg.counter_values() == seq_reg.counter_values()
        # Histograms merged chunk-by-chunk keep the sequential trial order,
        # so raw samples — and therefore exact percentiles — coincide.
        assert set(par_reg._histograms) == set(seq_reg._histograms)
        for key, seq_hist in seq_reg._histograms.items():
            par_hist = par_reg._histograms[key]
            assert par_hist.values == seq_hist.values
            for q in (0, 25, 50, 90, 95, 99, 100):
                assert par_hist.percentile(q) == seq_hist.percentile(q)
        for prefix in ("link.", "comm.", "sim."):
            assert (par_reg.top_counters(prefix, n=10)
                    == seq_reg.top_counters(prefix, n=10))

    def test_sample_trial_points_at_merged_registry(self, program):
        parallel = run_monte_carlo(program, replace(BASE, workers=3))
        assert parallel.sample_trial is not None
        assert parallel.sample_trial.metrics is parallel.metrics
        # The first trial carries the run's trace, as in the sequential path.
        assert len(parallel.sample_trial.trace.events) > 0

    def test_sample_trial_records_identical(self, program):
        # The worker's sample crosses the pool unread: its records are
        # built from the pickled ``run_plan`` lists in this process.
        sequential = run_monte_carlo(program, BASE)
        parallel = run_monte_carlo(program, replace(BASE, workers=2))
        assert parallel.sample_trial.ops == sequential.sample_trial.ops
        assert (parallel.sample_trial.resources.reservations
                == sequential.sample_trial.resources.reservations)

    def test_metrics_disabled_still_identical(self, program):
        config = replace(BASE, record_metrics=False)
        sequential = run_monte_carlo(program, config)
        parallel = run_monte_carlo(program, replace(config, workers=2))
        assert parallel.latencies == sequential.latencies
        assert len(parallel.metrics) == 0

    def test_more_workers_than_trials(self, program):
        config = replace(BASE, trials=3, workers=16)
        sequential = run_monte_carlo(program, replace(BASE, trials=3))
        parallel = run_monte_carlo(program, config)
        assert parallel.latencies == sequential.latencies
        assert parallel.config.workers == 16

    def test_result_config_keeps_master_seed(self, program):
        parallel = run_monte_carlo(program, replace(BASE, workers=2))
        assert parallel.config.seed == BASE.seed
        assert parallel.trial_seeds != [BASE.seed] * BASE.trials
        assert parallel.sample_trial.seed == parallel.trial_seeds[0]

    def test_workers_validation(self, program):
        with pytest.raises(ValueError, match="workers"):
            run_monte_carlo(program, replace(BASE, workers=0))


class TestPlanPickling:
    def test_schedule_plan_drops_lazy_caches(self, program):
        plan = plan_for_program(program)
        plan.successors()
        plan.op_profiles(program.network)
        groups = plan.comm_groups(program.network)
        settle = plan.settle_durations(program.network)
        assert plan._succs is not None and plan._profiles is not None
        assert plan._groups is not None and plan._settle is not None
        restored = pickle.loads(pickle.dumps(plan))
        assert restored._succs is None and restored._profiles is None
        assert restored._groups is None and restored._settle is None
        assert len(restored.items) == len(plan.items)
        assert restored.preds == plan.preds
        assert restored.successors() == plan.successors()
        assert restored.comm_groups(program.network) == groups
        assert restored.settle_durations(program.network) == settle

    def test_unpickled_program_simulates_identically(self, phased_program):
        restored = pickle.loads(pickle.dumps(phased_program))
        original = run_monte_carlo(phased_program, BASE)
        roundtrip = run_monte_carlo(restored, BASE)
        assert roundtrip.latencies == original.latencies
        assert roundtrip.epr_attempts == original.epr_attempts
        assert roundtrip.metrics.as_dict() == original.metrics.as_dict()
