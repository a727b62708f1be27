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

Every attempt draws one uniform from the caller's seeded ``random.Random``
and succeeds when it falls below the success probability, so a trial's
sampled durations are a function of its seed alone.

With ``p_success = 1.0`` (and ideal links) the process degenerates to
exactly the analytical preparation latency, consuming no randomness — the
deterministic mode the schedule validator relies on.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..hardware.links import combine_link_latencies
from ..hardware.network import QuantumNetwork

__all__ = ["EPRSample", "EPRProcess"]

#: Attempts after which one generation is deemed stuck (a defensive bound:
#: at any admissible success probability it is practically never reached).
MAX_ATTEMPTS = 100_000


class EPRSample(NamedTuple):
    """Outcome of generating the EPR pair(s) for one communication.

    A tuple record (one is drawn per comm op and trial): immutable and
    without a per-instance ``__dict__``; ``sample._replace(...)`` derives
    a changed copy.
    """

    attempts: int
    duration: float


class EPRProcess:
    """Samples EPR-pair generation times on a network's links."""

    def __init__(self, network: QuantumNetwork, p_success: float = 1.0,
                 retry_latency: Optional[float] = None,
                 per_link: Optional[bool] = None) -> None:
        if not 0.0 < p_success <= 1.0:
            raise ValueError(f"p_success must be in (0, 1], got {p_success}")
        if retry_latency is not None and retry_latency <= 0:
            raise ValueError("retry_latency must be positive")
        self.network = network
        self.p_success = p_success
        self.retry_latency = retry_latency
        #: Sample each physical link of a route as its own attempt process
        #: (heterogeneous link models); ``None`` auto-engages exactly when
        #: the network's links are heterogeneous.  Uniform networks keep the
        #: pair-level process, whose RNG stream is identical to the
        #: pre-link-model code.
        if per_link is None:
            per_link = network.heterogeneous_links
        self.per_link = bool(per_link)
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

    # ---------------------------------------------------------------- queries

    def pair_latency(self, node_a: int, node_b: int) -> float:
        """Deterministic generation latency of one successful attempt."""
        return self.network.epr_latency(node_a, node_b)

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
            return EPRSample(1, self.pair_latency(node_a, node_b))
        if self.per_link:
            return self._sample_routed_pair(rng, node_a, node_b)
        attempts = self._draw_attempts(rng, self.p_success)
        latency = self.pair_latency(node_a, node_b)
        retry = (self.retry_latency if self.retry_latency is not None
                 else latency)
        return EPRSample(attempts, (attempts - 1) * retry + latency)

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
            attempts, combine_link_latencies(durations, network.swap_overhead))

    def _draw_attempts(self, rng: random.Random, p_success: float) -> int:
        """Geometric attempt count at ``p_success`` from ``rng``'s stream.

        Each attempt consumes exactly one uniform and succeeds when it is
        below ``p_success``.
        """
        attempts = 1
        while rng.random() >= p_success:
            attempts += 1
            if attempts > MAX_ATTEMPTS:
                raise RuntimeError(
                    f"EPR generation exceeded {MAX_ATTEMPTS} attempts "
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
            return EPRSample(1, self.network.latency.t_epr)
        attempts = 0
        duration = 0.0
        for a, b in pairs:
            pair = self.sample_pair(rng, a, b)
            attempts += pair.attempts
            duration = max(duration, pair.duration)
        return EPRSample(attempts, duration)
