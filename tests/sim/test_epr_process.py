"""Unit tests for the stochastic EPR-generation process."""

import random

import pytest

from repro.core.scheduling import prep_latency_for_pairs
from repro.hardware import DEFAULT_LATENCY, apply_topology, uniform_network
from repro.sim import EPRProcess, EPRSample


#: Every pair of nodes 0-2, which a three-node communication generates.
ALL_PAIRS = [(0, 1), (0, 2), (1, 2)]


@pytest.fixture
def network():
    return uniform_network(3, 4)


class TestValidation:
    def test_zero_probability_rejected(self, network):
        with pytest.raises(ValueError):
            EPRProcess(network, p_success=0.0)

    def test_above_one_rejected(self, network):
        with pytest.raises(ValueError):
            EPRProcess(network, p_success=1.5)

    def test_negative_retry_latency_rejected(self, network):
        with pytest.raises(ValueError):
            EPRProcess(network, p_success=0.5, retry_latency=-1.0)


class TestDeterministicMode:
    def test_single_attempt_at_p_one(self, network):
        process = EPRProcess(network, p_success=1.0)
        sample = process.sample_pair(random.Random(0), 0, 1)
        assert sample == EPRSample(attempts=1, duration=DEFAULT_LATENCY.t_epr)

    def test_no_randomness_consumed_at_p_one(self, network):
        process = EPRProcess(network, p_success=1.0)
        rng = random.Random(123)
        before = rng.getstate()
        process.sample_pairs(rng, ALL_PAIRS)
        assert rng.getstate() == before

    def test_sample_pairs_equals_analytical_prep_at_p_one(self, network):
        process = EPRProcess(network, p_success=1.0)
        for pairs in [[(0, 1)], [(0, 2)], ALL_PAIRS]:
            sample = process.sample_pairs(random.Random(1), pairs)
            assert sample.duration == prep_latency_for_pairs(network, pairs)

    def test_topology_overrides_respected(self):
        network = apply_topology(uniform_network(4, 2), "line",
                                 swap_overhead=1.0)
        process = EPRProcess(network, p_success=1.0)
        assert process.pair_latency(0, 3) == pytest.approx(
            3 * DEFAULT_LATENCY.t_epr)
        sample = process.sample_pairs(random.Random(0),
                                      [(0, 1), (0, 3), (1, 3)])
        assert sample.duration == pytest.approx(3 * DEFAULT_LATENCY.t_epr)


class TestStochasticMode:
    def test_seeded_samples_reproducible(self, network):
        process = EPRProcess(network, p_success=0.3)
        a = [process.sample_pair(random.Random(9), 0, 1) for _ in range(5)]
        b = [process.sample_pair(random.Random(9), 0, 1) for _ in range(5)]
        assert a == b

    def test_duration_matches_attempt_count(self, network):
        process = EPRProcess(network, p_success=0.4, retry_latency=3.0)
        rng = random.Random(11)
        for _ in range(50):
            sample = process.sample_pair(rng, 0, 1)
            expected = (sample.attempts - 1) * 3.0 + DEFAULT_LATENCY.t_epr
            assert sample.duration == pytest.approx(expected)

    def test_duration_never_below_deterministic(self, network):
        process = EPRProcess(network, p_success=0.5)
        rng = random.Random(5)
        for _ in range(100):
            assert process.sample_pair(rng, 0, 1).duration \
                >= DEFAULT_LATENCY.t_epr

    def test_mean_attempts_close_to_geometric(self, network):
        process = EPRProcess(network, p_success=0.5)
        rng = random.Random(1234)
        samples = [process.sample_pair(rng, 0, 1).attempts
                   for _ in range(4000)]
        # Geometric with p=0.5 has mean 2; allow generous sampling slack.
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.1)

    def test_multi_node_sample_takes_slowest_pair(self, network):
        process = EPRProcess(network, p_success=0.5)
        rng = random.Random(3)
        sample = process.sample_pairs(rng, ALL_PAIRS)
        # Three pairs generate concurrently; at least one attempt each.
        assert sample.attempts >= 3
        assert sample.duration >= DEFAULT_LATENCY.t_epr
