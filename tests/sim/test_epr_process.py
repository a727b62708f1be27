"""Unit tests for the stochastic EPR-generation process."""

import random

import pytest

from repro.core.scheduling import prep_latency_for_pairs
from repro.hardware import (DEFAULT_LATENCY, LinkModel, LinkSpec,
                            apply_topology, uniform_network)
from repro.hardware.links import combine_link_latencies
from repro.sim import EPRProcess, EPRSample, epr_process


#: Every pair of nodes 0-2, which a three-node communication generates.
ALL_PAIRS = [(0, 1), (0, 2), (1, 2)]


@pytest.fixture
def network():
    return uniform_network(3, 4)


def _loop_attempts(rng, p):
    """Attempts of one generation: one uniform each, success below ``p``."""
    attempts = 1
    while rng.random() >= p:
        attempts += 1
    return attempts


def _slow_link_line(p_epr):
    """Three nodes on a line whose link 1-2 is twice as slow at ``p_epr``."""
    t_epr = DEFAULT_LATENCY.t_epr
    model = LinkModel(LinkSpec(t_epr=t_epr),
                      {(1, 2): LinkSpec(t_epr=2 * t_epr, p_epr=p_epr)})
    return apply_topology(uniform_network(3, 4), "line", link_model=model)


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

    def test_nan_probability_rejected(self, network):
        with pytest.raises(ValueError):
            EPRProcess(network, p_success=float("nan"))


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

    def test_sample_pair_matches_loop(self, network):
        # One uniform per attempt, success when it falls below p: the
        # stream contract every seeded trial's latency rests on.
        seed = 2 ** 45 + 5
        process = EPRProcess(network, p_success=0.5)
        rng = random.Random(seed)
        replay = random.Random(seed)
        t_epr = DEFAULT_LATENCY.t_epr
        for _ in range(300):
            attempts = 1
            while replay.random() >= 0.5:
                attempts += 1
            assert process.sample_pair(rng, 0, 1) == EPRSample(
                attempts=attempts, duration=(attempts - 1) * t_epr + t_epr)
        assert rng.getstate() == replay.getstate()

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


class TestAttemptStream:
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
    def test_attempt_stream_matches_loop(self, network, p):
        # Trial seeds are 63-bit, so the generator is keyed by two words.
        seed = 2 ** 40 + 12345
        process = EPRProcess(network, p_success=p)
        rng = random.Random(seed)
        replay = random.Random(seed)
        for _ in range(2000):
            assert (process.sample_pair(rng, 0, 1).attempts
                    == _loop_attempts(replay, p))
        assert rng.getstate() == replay.getstate()

    def test_process_keeps_no_stream_state(self, network):
        # Every draw comes from the generator passed in: interleaving two
        # generators through one process gives each its stream alone.
        shared = EPRProcess(network, p_success=0.5)
        first, second = random.Random(1), random.Random(2)
        interleaved = [(shared.sample_pair(first, 0, 1),
                        shared.sample_pair(second, 0, 1))
                       for _ in range(200)]
        for seed, column in ((1, 0), (2, 1)):
            alone = EPRProcess(network, p_success=0.5)
            rng = random.Random(seed)
            assert ([pair[column] for pair in interleaved]
                    == [alone.sample_pair(rng, 0, 1) for _ in range(200)])

    def test_runaway_generation_raises(self, network, monkeypatch):
        monkeypatch.setattr(epr_process, "MAX_ATTEMPTS", 5)

        class AlwaysFails(random.Random):
            draws = 0

            def random(self):
                self.draws += 1
                return 0.99

        rng = AlwaysFails(0)
        process = EPRProcess(network, p_success=0.5)
        with pytest.raises(RuntimeError, match="exceeded 5 attempts"):
            process.sample_pair(rng, 0, 1)
        assert rng.draws == 5


class TestPerLinkMode:
    def test_lossless_links_consume_no_randomness(self):
        network = _slow_link_line(p_epr=1.0)
        process = EPRProcess(network, p_success=1.0)
        assert process.per_link and process.deterministic
        rng = random.Random(5)
        before = rng.getstate()
        sample = process.sample_pair(rng, 0, 2)
        assert sample == EPRSample(attempts=1,
                                   duration=network.epr_latency(0, 2))
        assert rng.getstate() == before

    def test_lossy_link_draws_one_uniform_per_attempt(self):
        # Link 0-1 succeeds at once and draws nothing; link 1-2 runs the
        # one-uniform-per-attempt loop at its own p_epr.
        network = _slow_link_line(p_epr=0.5)
        process = EPRProcess(network, p_success=1.0)
        assert process.per_link and not process.deterministic
        t_epr = DEFAULT_LATENCY.t_epr
        seed = 2 ** 40 + 7
        rng = random.Random(seed)
        replay = random.Random(seed)
        for _ in range(200):
            slow = _loop_attempts(replay, 0.5)
            sample = process.sample_pair(rng, 0, 2)
            assert sample.attempts == 1 + slow
            assert sample.duration == combine_link_latencies(
                [t_epr, slow * 2 * t_epr], network.swap_overhead)
        assert rng.getstate() == replay.getstate()
