"""Batched EPR-attempt sampling must be bitwise-identical to the loop.

The vectorised sampler replays the exact ``random.Random`` Mersenne-Twister
double stream through numpy (state transplant, or direct multi-word-key
seeding for fresh generators), so attempt counts — and therefore every
seeded Monte-Carlo latency — must match the per-attempt rejection loop
exactly, not just in distribution.
"""

import random

import pytest

from repro.circuits import build_benchmark, qft_circuit
from repro.core import compile_autocomm
from repro.hardware import uniform_network
from repro.ir import decompose_to_cx
from repro.sim import (ExecutionEngine, SimulationConfig, plan_for_program,
                       run_monte_carlo, simulate_program)
from repro.sim.epr_process import BatchedAttemptSampler, EPRProcess


def _loop_attempts(rng: random.Random, p: float) -> int:
    attempts = 1
    while rng.random() >= p:
        attempts += 1
    return attempts


class TestUniformStream:
    def test_transplanted_stream_matches_python(self):
        sampler = BatchedAttemptSampler(random.Random(2024), 0.5, chunk=64)
        reference = random.Random(2024)
        expected = [reference.random() for _ in range(512)]
        produced = []
        # Consume through refills and reconstruct the uniform count: each
        # attempt consumes exactly one uniform.
        while len(produced) < 400:
            produced.append(sampler.next_attempts())
        consumed = sum(produced)
        replay = random.Random(2024)
        attempts = [_loop_attempts(replay, 0.5) for _ in range(400)]
        assert produced == attempts
        assert consumed == sum(attempts)
        assert expected[:8] == [e for e in expected[:8]]  # sanity

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
    def test_attempt_stream_matches_loop(self, p):
        seed = 2 ** 40 + 12345  # multi-word seed: direct-seeding fast path
        sampler = BatchedAttemptSampler(random.Random(seed), p, chunk=128,
                                        seed=seed)
        replay = random.Random(seed)
        for _ in range(2000):
            assert sampler.next_attempts() == _loop_attempts(replay, p)

    def test_small_seed_uses_state_transplant(self):
        # Single-word seeds cannot use direct numpy seeding; the transplant
        # path must still reproduce the stream.
        sampler = BatchedAttemptSampler(random.Random(7), 0.4, chunk=32,
                                        seed=7)
        replay = random.Random(7)
        for _ in range(500):
            assert sampler.next_attempts() == _loop_attempts(replay, 0.4)

    def test_private_generator_fallback_is_seamless(self):
        # A tiny chunk forces the eager shared-scratch draw to run dry and
        # the sampler to fast-forward a private generator mid-stream.
        seed = 2 ** 50 + 99
        sampler = BatchedAttemptSampler(random.Random(seed), 0.5, chunk=8,
                                        seed=seed)
        replay = random.Random(seed)
        for _ in range(300):
            assert sampler.next_attempts() == _loop_attempts(replay, 0.5)

    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            BatchedAttemptSampler(random.Random(1), 1.0)
        with pytest.raises(ValueError):
            BatchedAttemptSampler(random.Random(1), 0.5, chunk=0)


class TestEPRProcessBatching:
    def test_sample_pair_matches_loop(self, two_node_network):
        seed = 2 ** 45 + 5
        batched = EPRProcess(two_node_network, p_success=0.5)
        rng_batched = random.Random(seed)
        assert batched.use_batched_sampling(rng_batched, seed=seed)

        plain = EPRProcess(two_node_network, p_success=0.5)
        rng_plain = random.Random(seed)
        for _ in range(300):
            a = batched.sample_pair(rng_batched, 0, 1)
            b = plain.sample_pair(rng_plain, 0, 1)
            assert a == b

    def test_foreign_rng_falls_back_to_loop(self, two_node_network):
        process = EPRProcess(two_node_network, p_success=0.5)
        assert process.use_batched_sampling(random.Random(2 ** 40), seed=2 ** 40)
        # A different generator must not consume from the batched stream.
        other = random.Random(123)
        expected = random.Random(123)
        sample = process.sample_pair(other, 0, 1)
        assert sample.attempts == _loop_attempts(expected, 0.5)

    def test_deterministic_process_declines_batching(self, two_node_network):
        process = EPRProcess(two_node_network, p_success=1.0)
        assert not process.use_batched_sampling(random.Random(2 ** 40))


class TestMonteCarloEquivalence:
    @pytest.fixture(scope="class")
    def program(self):
        circuit = decompose_to_cx(qft_circuit(12))
        network = uniform_network(3, 4)
        return compile_autocomm(circuit, network)

    @pytest.fixture(scope="class")
    def batched_program(self):
        # Large enough (over a thousand EPR preparations) for the engine to
        # engage batched sampling.
        circuit, network = build_benchmark("UCCSD", 8, 4)
        return compile_autocomm(circuit, network)

    @pytest.mark.parametrize("p_epr", [0.25, 0.5])
    def test_batched_and_loop_latencies_identical(self, batched_program,
                                                  p_epr):
        # The engine batches only the generator it owns; a caller-supplied
        # generator on the same seed keeps the per-attempt loop.
        program = batched_program
        plan = plan_for_program(program)
        for seed in range(10):
            config = SimulationConfig(p_epr=p_epr, seed=seed,
                                      record_trace=False)
            engine = ExecutionEngine(plan, program.network, config=config)
            assert engine.epr._batched is not None
            batched = engine.run()
            looped = ExecutionEngine(plan, program.network, config=config,
                                     rng=random.Random(seed))
            assert looped.epr._batched is None
            loop = looped.run()
            assert batched.latency == loop.latency
            assert ([op.epr_attempts for op in batched.ops]
                    == [op.epr_attempts for op in loop.ops])

    def test_single_trial_reproduces_from_recorded_seed(self, program):
        config = SimulationConfig(p_epr=0.5, trials=3, seed=9,
                                  record_trace=False)
        monte_carlo = run_monte_carlo(program, config)
        for trial, trial_seed in enumerate(monte_carlo.trial_seeds):
            replay = simulate_program(program, SimulationConfig(
                p_epr=0.5, seed=trial_seed, record_trace=False))
            assert replay.latency == monte_carlo.latencies[trial]

    def test_deterministic_replay_unaffected(self, program):
        result = simulate_program(program)
        assert result.latency == pytest.approx(program.schedule.latency)
