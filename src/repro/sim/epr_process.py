"""Stochastic EPR-pair generation.

Real remote-entanglement hardware is heralded: each generation attempt
succeeds only with some probability ``p`` and is retried until it succeeds,
so the preparation time of one EPR pair is a geometrically distributed
number of attempts.  The analytical scheduler abstracts this into the fixed
``t_epr`` of :class:`~repro.hardware.timing.LatencyModel`; the execution
simulator samples the attempt process explicitly:

* the *success attempt* always costs the deterministic pair latency
  (``QuantumNetwork.epr_latency``, which reflects topology overrides);
* each *failed attempt* costs ``retry_latency`` (defaulting to the same pair
  latency), modelling heralding + reset before the next try.

On a network with a *heterogeneous* :class:`~repro.hardware.links.LinkModel`
the process drops one level: each physical link of the pair's entanglement
route runs its own attempt process — success costs the link's own ``t_epr``,
the per-attempt success probability is the link's ``p_epr`` multiplied by
the simulation-level ``p_success``, and a failed attempt costs
``retry_latency`` or the link's own latency.  The sampled link durations
combine exactly as the analytical derivation does
(:func:`repro.hardware.links.combine_link_latencies`), so a fully
deterministic configuration reproduces ``QuantumNetwork.epr_latency``
bit-for-bit.  Uniform link models keep the pair-level process (identical
RNG stream to the pre-link-model code).

With ``p_success = 1.0`` (and ideal links) the process degenerates to
exactly the analytical preparation latency, consuming no randomness — the
deterministic mode the schedule validator relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.links import combine_link_latencies
from ..hardware.network import QuantumNetwork

__all__ = ["EPRSample", "EPRProcess", "BatchedAttemptSampler"]

#: Shared scratch generator for seed-based batched sampling.  Re-seeded and
#: drawn from only inside ``BatchedAttemptSampler.__init__`` (atomically), so
#: overlapping sampler lifetimes cannot interleave draws on it.
_SCRATCH_STATE = np.random.RandomState()


class BatchedAttemptSampler:
    """Streams geometric attempt counts, bitwise-identical to the rejection loop.

    The per-attempt loop ``while rng.random() >= p: attempts += 1`` consumes
    one uniform per attempt from the ``random.Random`` Mersenne-Twister
    stream.  CPython and numpy's legacy ``RandomState`` build doubles from
    the MT19937 word stream with the same 53-bit recipe, so transplanting the
    generator state lets numpy produce *exactly* the doubles the Python loop
    would have drawn — in bulk.  Attempt counts are then the gaps between
    successes (``u < p``) in that stream, recovered with vectorised scans and
    served in consumption order.

    The equivalence is asserted by ``tests/sim/test_epr_process.py``; if the
    state transplant is ever unavailable the caller falls back to the loop.
    """

    def __init__(self, rng: random.Random, p_success: float,
                 chunk: int = 1024, seed: Optional[int] = None) -> None:
        if not 0.0 < p_success < 1.0:
            raise ValueError("batched sampling needs 0 < p_success < 1")
        if chunk < 1:
            raise ValueError("chunk must be positive")
        self.rng = rng
        self.p_success = p_success
        self._chunk = chunk
        self._pending: List[int] = []
        self._pos = 0
        #: Failed attempts carried from chunks that ended without a success.
        self._carry = 0
        #: Total uniforms drawn so far (to fast-forward a private generator
        #: if the shared scratch generator's eager draw runs out).
        self._drawn = 0
        self._uniforms: Optional[np.random.RandomState] = None
        self._key: Optional[np.ndarray] = None
        if seed is not None and seed >= 2 ** 32:
            # Multi-word integer seeds feed MT19937's init_by_array with the
            # same 32-bit key words in CPython and numpy, so the stream can
            # be generated by re-seeding a shared scratch generator — far
            # cheaper than constructing a RandomState (~150us) per trial.
            # (Single-word seeds take different init paths in the two
            # libraries, hence the bound.)  The scratch generator is only
            # touched here, inside __init__, so concurrent samplers can
            # never interleave draws on it; if this eager draw proves too
            # small, _refill builds a private generator and fast-forwards.
            key = []
            value = seed
            while value:
                key.append(value & 0xFFFFFFFF)
                value >>= 32
            self._key = np.asarray(key, dtype=np.uint32)
            _SCRATCH_STATE.seed(self._key)
            self._consume(_SCRATCH_STATE.random_sample(chunk))
        else:
            state = rng.getstate()
            if state[0] != 3:  # pragma: no cover - non-CPython state layout
                raise ValueError(
                    f"unsupported random.Random state version {state[0]}")
            keys, pos = state[1][:-1], state[1][-1]
            self._uniforms = np.random.RandomState()
            self._uniforms.set_state(
                ("MT19937", np.asarray(keys, dtype=np.uint32), int(pos), 0, 0.0))

    def next_attempts(self) -> int:
        """Attempts (failures + the final success) of the next generation."""
        pos = self._pos
        pending = self._pending
        while pos >= len(pending):
            self._refill()
            pos = self._pos
            pending = self._pending
        self._pos = pos + 1
        return pending[pos]

    def _refill(self) -> None:
        if self._uniforms is None:
            # The eager draw from the shared scratch generator ran out:
            # switch to a private generator, replaying the already-consumed
            # prefix of the stream.
            self._uniforms = np.random.RandomState(self._key)
            if self._drawn:
                self._uniforms.random_sample(self._drawn)
        self._consume(self._uniforms.random_sample(self._chunk))

    def _consume(self, uniforms: np.ndarray) -> None:
        self._drawn += uniforms.size
        successes = np.flatnonzero(uniforms < self.p_success)
        if successes.size == 0:
            self._carry += uniforms.size
            return
        counts = np.empty(successes.size, dtype=np.int64)
        counts[0] = self._carry + int(successes[0]) + 1
        if successes.size > 1:
            np.subtract(successes[1:], successes[:-1], out=counts[1:])
        remainder = self._pending[self._pos:]
        self._pending = remainder + counts.tolist() if remainder \
            else counts.tolist()
        self._pos = 0
        self._carry = uniforms.size - 1 - int(successes[-1])


@dataclass(frozen=True)
class EPRSample:
    """Outcome of generating the EPR pair(s) for one communication."""

    attempts: int
    duration: float


class EPRProcess:
    """Samples EPR-pair generation times on a network's links."""

    def __init__(self, network: QuantumNetwork, p_success: float = 1.0,
                 retry_latency: Optional[float] = None,
                 max_attempts: int = 100_000,
                 per_link: Optional[bool] = None) -> None:
        if not 0.0 < p_success <= 1.0:
            raise ValueError(f"p_success must be in (0, 1], got {p_success}")
        if retry_latency is not None and retry_latency <= 0:
            raise ValueError("retry_latency must be positive")
        self.network = network
        self.p_success = p_success
        self.retry_latency = retry_latency
        self.max_attempts = max_attempts
        #: Sample each physical link of a route as its own attempt process
        #: (heterogeneous link models); ``None`` auto-engages exactly when
        #: the network's links are heterogeneous.  Uniform networks keep the
        #: pair-level process, whose RNG stream is identical to the
        #: pre-link-model code.
        if per_link is None:
            per_link = network.heterogeneous_links
        self.per_link = bool(per_link)
        self._batched: Optional[BatchedAttemptSampler] = None
        # The network's link model never changes after engine construction,
        # so the determinism verdict (an O(overrides) scan through the
        # model) is resolved once here instead of on every sampling call.
        if self.p_success < 1.0:
            self._deterministic = False
        elif not self.per_link:
            self._deterministic = True
        else:
            model = network.link_model
            self._deterministic = model is None or model.deterministic

    @property
    def deterministic(self) -> bool:
        """True when no generation consumes randomness.

        Pair-level sampling is deterministic at ``p_success = 1``;
        per-link sampling additionally needs every link's own ``p_epr`` to
        be 1 (the link model's ``deterministic`` property).
        """
        return self._deterministic

    def use_batched_sampling(self, rng: random.Random,
                             expected_draws: Optional[int] = None,
                             seed: Optional[int] = None) -> bool:
        """Serve ``rng``'s attempt draws through vectorised pre-sampling.

        Returns True when batching is active.  Sampling results are
        bitwise-identical to the per-attempt loop on the same generator;
        calls with any *other* generator keep using the loop.
        ``expected_draws`` (the caller's estimate of total uniforms needed,
        e.g. EPR pairs / p_success) sizes the pre-sampling chunk so one
        refill usually covers a whole execution without overshooting.
        Pass ``seed`` only when ``rng`` is a freshly seeded, unconsumed
        ``random.Random(seed)`` — it enables direct (cheaper) seeding of the
        vectorised generator instead of a state transplant.
        """
        if self.deterministic:
            return False
        if expected_draws is None:
            chunk = 1024
        else:
            chunk = max(64, min(65536, int(expected_draws * 5 // 4) + 16))
        try:
            self._batched = BatchedAttemptSampler(rng, self.p_success,
                                                  chunk=chunk, seed=seed)
        except Exception:  # pragma: no cover - non-CPython fallback
            self._batched = None
        return self._batched is not None

    # ---------------------------------------------------------------- queries

    def pair_latency(self, node_a: int, node_b: int) -> float:
        """Deterministic generation latency of one successful attempt."""
        return self.network.epr_latency(node_a, node_b)

    def attempt_latency(self, node_a: int, node_b: int) -> float:
        """Cost of one failed attempt on the pair's link."""
        if self.retry_latency is not None:
            return self.retry_latency
        return self.pair_latency(node_a, node_b)

    # --------------------------------------------------------------- sampling

    def sample_pair(self, rng: random.Random, node_a: int,
                    node_b: int) -> EPRSample:
        """Sample the generation of one end-to-end EPR pair between two nodes.

        Per-link mode (heterogeneous link models) samples every physical
        link of the pair's route independently and combines the sampled
        durations exactly as the analytical latency derivation does, so a
        deterministic configuration reproduces ``pair_latency`` bit-for-bit.
        """
        if self._deterministic:
            return EPRSample(attempts=1,
                             duration=self.pair_latency(node_a, node_b))
        if self.per_link:
            return self._sample_routed_pair(rng, node_a, node_b)
        attempts = self._draw_attempts(rng, self.p_success)
        retries = (attempts - 1) * self.attempt_latency(node_a, node_b)
        return EPRSample(attempts=attempts,
                         duration=retries + self.pair_latency(node_a, node_b))

    def _sample_routed_pair(self, rng: random.Random, node_a: int,
                            node_b: int) -> EPRSample:
        """Sample each physical link of the pair's route with its own spec."""
        network = self.network
        attempts = 0
        durations: List[float] = []
        for a, b in network.route_links(node_a, node_b):
            link_latency = network.link_latency(a, b)
            p_link = self.p_success * network.link_p_epr(a, b)
            if p_link >= 1.0:
                link_attempts = 1
            else:
                link_attempts = self._draw_attempts(rng, p_link)
            attempts += link_attempts
            retry = (self.retry_latency if self.retry_latency is not None
                     else link_latency)
            durations.append((link_attempts - 1) * retry + link_latency)
        return EPRSample(
            attempts=attempts,
            duration=combine_link_latencies(durations, network.swap_overhead))

    def _draw_attempts(self, rng: random.Random, p_success: float) -> int:
        """Geometric attempt count at ``p_success`` from ``rng``'s stream.

        The batched sampler serves a draw only at the probability it was
        built for — other probabilities (a link whose ``p_epr`` is not 1)
        fall back to the per-attempt loop, which the engine guards against
        by disabling batching on non-deterministic link models.
        """
        batched = self._batched
        if (batched is not None and batched.rng is rng
                and batched.p_success == p_success):
            attempts = batched.next_attempts()
            if attempts > self.max_attempts:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"EPR generation exceeded {self.max_attempts} attempts "
                    f"(p_success={p_success})")
            return attempts
        attempts = 1
        while rng.random() >= p_success:
            attempts += 1
            if attempts > self.max_attempts:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"EPR generation exceeded {self.max_attempts} attempts "
                    f"(p_success={p_success})")
        return attempts

    def sample_pairs(self, rng: random.Random,
                     pairs: Sequence[Tuple[int, int]]) -> EPRSample:
        """Sample the preparation of an op's consumed EPR pairs.

        One generation process is sampled per entry — a pair listed twice
        (a chain teleporting over the same link twice) generates two EPR
        pairs.  All generations run concurrently, so the op waits for the
        slowest; with ``p_success = 1`` this equals
        :func:`repro.core.scheduling.prep_latency_for_pairs` exactly.
        """
        if not pairs:
            return EPRSample(attempts=1, duration=self.network.latency.t_epr)
        attempts = 0
        duration = 0.0
        for a, b in pairs:
            pair = self.sample_pair(rng, a, b)
            attempts += pair.attempts
            duration = max(duration, pair.duration)
        return EPRSample(attempts=attempts, duration=duration)
