"""Static qubit partitioning by Overall Extreme Exchange (OEE).

The AutoComm evaluation maps program qubits to nodes with the "Static Overall
Extreme Exchange" strategy studied by Baker et al. (Time-sliced quantum
circuit partitioning, CF 2020).  OEE is a Kernighan–Lin style local search on
the weighted qubit-interaction graph: starting from an initial balanced
assignment it repeatedly applies the qubit *exchange* (swap of two qubits on
different nodes) with the largest reduction in cut weight, until no exchange
improves the cut.  The cut weight equals the number of remote multi-qubit
gates under a static mapping, which is the objective the paper optimises
before AutoComm runs.

Vectorized search
-----------------

The search state lives on numpy: the interaction counts are a dense weight
matrix ``W`` read straight from the circuit's pair histogram (the matrix
:func:`~repro.partition.interaction_graph.interaction_matrix` builds), the
assignment an index vector ``A``, and the objective a node-distance matrix
``D``.  The unweighted remote-gate cut is the unit-distance case
``D = 1 - I``; a routed topology supplies its route costs instead.  Each
pivot qubit's gains against *every* candidate partner come from one
gathered vector expression, and the state matrices are updated
incrementally after each accepted swap (a rank-one outer-product update),
so a full improvement round is O(n) vector ops per pivot.  The initial and
final cuts are priced from the same edge weights, ``D`` and ``A``.

:func:`oee_partition` and :func:`oee_repartition` run one search loop: a
fresh partition pivots each active qubit against the active qubits after
it, a migration-aware repartition lets every qubit be a partner and
charges each exchange its migration bill.

Two invariants keep the swap sequence — and therefore every mapping, phase
split and migration plan downstream — bit-identical to the scalar search
preserved in :mod:`repro.partition.oee_reference`:

* Interaction weights are integer gate counts and node distances are 0/1,
  hop counts or dyadic link-latency sums, so every gain is computed exactly
  in float64 no matter how the terms are grouped; regrouping the sums onto
  matrix products cannot change the value.  The cuts are added edge by edge
  in the reference's order, so they keep its bits for any latency.
* Partner selection replays the reference tie-break exactly: candidates are
  scanned in the reference order and a partner is accepted only when its
  gain beats the *last accepted* gain by more than ``1e-12`` (a cheap python
  scan over the numpy gain vector, entered only when the vectorized max
  shows an improving partner exists).

The vectorized search is the only production path; the scalar copy is
kept for comparison alone.  Equivalence of the two is enforced by
``tests/partition/test_oee_vectorized.py`` (down to whole phased compiles
with the reference search patched into the pipeline), the hypothesis
properties in ``tests/properties/test_property_oee.py`` and the assertions
inside ``benchmarks/bench_partition.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from ..obs.span import stage
from .mapping import QubitMapping, block_mapping

__all__ = ["oee_partition", "oee_repartition", "OEEResult",
           "exchange_gain_vector", "migration_distance_matrix"]

#: Tolerance of the greedy tie-break: a candidate replaces the incumbent
#: partner only when its gain exceeds the incumbent's by more than this.
_EPS = 1e-12


class OEEResult:
    """Outcome of an OEE partitioning run.

    ``migration_moves``/``migration_cost`` are only populated by
    :func:`oee_repartition`: the number of qubits whose node changed
    relative to the seed mapping and the total routed distance those moves
    were charged in the objective.
    """

    def __init__(self, mapping: QubitMapping, initial_cut: float,
                 final_cut: float, num_exchanges: int, rounds: int,
                 migration_moves: int = 0,
                 migration_cost: float = 0.0) -> None:
        self.mapping = mapping
        self.initial_cut = initial_cut
        self.final_cut = final_cut
        self.num_exchanges = num_exchanges
        self.rounds = rounds
        self.migration_moves = migration_moves
        self.migration_cost = migration_cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OEEResult(cut {self.initial_cut:.0f} -> {self.final_cut:.0f}, "
                f"{self.num_exchanges} exchanges, {self.rounds} rounds)")


def exchange_gain_vector(weights, assignment: Sequence[int], qubit_a: int,
                         node_distances=None) -> "np.ndarray":
    """Gains of swapping ``qubit_a`` with *every* qubit, as one numpy vector.

    ``weights`` is the dense symmetric interaction matrix
    (:func:`~repro.partition.interaction_graph.interaction_matrix`),
    ``assignment`` a length-n node-index sequence.  Entry ``b`` equals
    :func:`~repro.partition.oee_reference.exchange_gain_reference` for the
    pair ``(qubit_a, b)``; entries where ``b`` shares ``qubit_a``'s node
    (including ``b == qubit_a``) are 0.0, matching the scalar early-return.
    This is the vectorized gain math the OEE search runs on, exposed for
    the property tests that pin it against the scalar reference.
    """
    W = np.asarray(weights, dtype=np.float64)
    A = np.asarray(assignment, dtype=np.int64)
    if node_distances is None:
        distances = _unit_distances(int(A.max()) + 1 if A.size else 1)
    else:
        distances = np.asarray(node_distances, dtype=np.float64)
    state = _GainState(W, A, distances)
    gains = state.gain_vector(qubit_a)
    gains[A == A[qubit_a]] = 0.0
    return gains


def _unit_distances(num_nodes: int) -> "np.ndarray":
    """``1 - I``: the distances under which the cut counts remote gates."""
    return 1.0 - np.eye(num_nodes)


class _GainState:
    """Incrementally-maintained vector state of one OEE search.

    ``S[q, m]`` is the distance-priced load ``sum_n W[q, n] * D[m, A[n]]``
    (``S = W @ D.T[A]``): what qubit ``q``'s interactions would cost if it
    sat on node ``m``.  The gain of a swap follows the scalar formula with
    an explicit correction for the swapped pair's own edge, and each
    accepted swap is a rank-one update of ``S``.  The unweighted objective
    is ``D = 1 - I``.

    For migration-aware repartitioning, ``move`` holds each qubit's
    effective move-cost row (home node priced at zero, exactly like the
    scalar ``move_cost``) and ``cur_move`` the cost each qubit currently
    pays under ``A``.
    """

    def __init__(self, W: "np.ndarray", A: "np.ndarray",
                 distances: "np.ndarray",
                 migration: Optional["np.ndarray"] = None) -> None:
        self.W = W
        self.A = A
        self.D = distances
        self._rows = np.arange(W.shape[0])
        self.S = W @ distances.T[A]
        self.S_self = self.S[self._rows, A]
        if migration is None:
            self.move = None
            self.cur_move = None
        else:
            # The search starts from the seed, so ``A`` is each qubit's home.
            move = migration[A]
            move[self._rows, A] = 0.0
            self.move = move
            self.cur_move = move[self._rows, A]

    def gain_vector(self, qubit_a: int) -> "np.ndarray":
        """Raw gain of swapping ``qubit_a`` with each qubit (length n).

        Entries for same-node partners (and ``qubit_a`` itself) are
        meaningless — callers mask them before use.
        """
        A = self.A
        D = self.D
        node_a = A[qubit_a]
        row = self.S[qubit_a]
        # The swapped pair's own edge is excluded by the scalar form;
        # remove its two (generally asymmetric-safe) contributions.
        own_edge = self.W[qubit_a] * (
            (D[node_a].take(A) - D.diagonal().take(A))
            + (D[:, node_a].take(A) - D[node_a, node_a]))
        gains = ((row[node_a] - row.take(A))
                 + (self.S_self - self.S[:, node_a])
                 - own_edge)
        if self.move is not None:
            # Migration delta, grouped exactly like the scalar accumulation:
            # ((pay_a_now + pay_b_now) - pay_a_there) - pay_b_here.
            gains = gains + (((self.move[qubit_a, node_a] + self.cur_move)
                              - self.move[qubit_a].take(A))
                             - self.move[:, node_a])
        return gains

    def best_partner(self, qubit_a: int,
                     candidates: "np.ndarray") -> Optional[int]:
        """Replay the reference greedy scan over ``candidates`` (in order)."""
        if candidates.size == 0:
            return None
        gains = self.gain_vector(qubit_a).take(candidates)
        gains[self.A.take(candidates) == self.A[qubit_a]] = -np.inf
        if not (gains.max() > _EPS):
            return None
        # An improving partner exists: replay the scalar tie-break, which
        # accepts a candidate only when it beats the last *accepted* gain.
        best_gain = 0.0
        best_partner: Optional[int] = None
        order = candidates.tolist()
        for index, gain in enumerate(gains.tolist()):
            if gain > best_gain + _EPS:
                best_gain = gain
                best_partner = order[index]
        return best_partner

    def swap(self, qubit_a: int, qubit_b: int) -> None:
        """Exchange the two qubits' nodes and refresh the state matrices."""
        A = self.A
        node_a = int(A[qubit_a])
        node_b = int(A[qubit_b])
        delta = self.W[qubit_a] - self.W[qubit_b]
        self.S += np.outer(delta, self.D[:, node_b] - self.D[:, node_a])
        A[qubit_a] = node_b
        A[qubit_b] = node_a
        self.S_self = self.S[self._rows, A]
        if self.move is not None:
            self.cur_move[qubit_a] = self.move[qubit_a, node_b]
            self.cur_move[qubit_b] = self.move[qubit_b, node_a]


def _interaction_edges(circuit: Circuit):
    """The circuit's interaction edges as ``(lower, upper, weight)`` arrays.

    The edges come in the order ``cut_weight`` walks the interaction graph:
    by lower endpoint, and each endpoint's edges in gate order.  A stable
    sort of the gate-ordered pair histogram on the lower endpoint replays it.
    """
    edges = sorted(circuit.interaction_pairs().items(),
                   key=lambda item: item[0][0])
    lower = np.array([pair[0] for pair, _ in edges], dtype=np.int64)
    upper = np.array([pair[1] for pair, _ in edges], dtype=np.int64)
    weight = np.array([count for _, count in edges], dtype=np.float64)
    return lower, upper, weight


def _cut(edges, D: "np.ndarray", A: "np.ndarray") -> float:
    """Distance-priced weight of the edges that ``A`` cuts.

    A running sum in edge order gives ``cut_weight``'s bits even when link
    latencies are not dyadic, where a regrouped sum may differ in the last
    place.
    """
    lower, upper, weight = edges
    nodes_a, nodes_b = A[lower], A[upper]
    cut = nodes_a != nodes_b
    prices = weight[cut] * D[nodes_a[cut], nodes_b[cut]]
    return float(np.cumsum(prices)[-1]) if prices.size else 0.0


def _active_qubits(W: "np.ndarray") -> "np.ndarray":
    """Qubits with at least one interaction, in index order (the reference
    iterates ``sorted(weights.keys())``, which is the same set and order)."""
    return np.flatnonzero((W != 0.0).any(axis=1))


def _topology_distances(network: QuantumNetwork,
                        use_link_distances: Optional[bool]
                        ) -> Optional[List[List[float]]]:
    """Resolve the distance matrix the partitioner should weight cuts by.

    The distances are the routing table's route costs — link-latency sums
    when the network carries a heterogeneous link model, plain hop counts
    (identical integers to before link weights existed) otherwise.

    ``None`` (auto) engages distance weighting only when the network
    carries a routing table with non-uniform hop counts or weighted (link-
    latency) routes.  A ``None`` result means the unweighted remote-gate
    cut, which the search prices with unit distances.
    """
    routing = getattr(network, "routing", None)
    if use_link_distances is None:
        use_link_distances = routing is not None and (
            not routing.uniform or routing.weighted)
    if not use_link_distances:
        return None
    if routing is None:
        raise ValueError("use_link_distances requires a routed network "
                         "(see repro.hardware.apply_topology)")
    return routing.cost_matrix()


def _record_oee_span(span, result: OEEResult) -> None:
    """Attach an OEE run's search statistics to its stage span."""
    if not span.enabled:
        return
    span.set("rounds", result.rounds)
    span.set("exchanges", result.num_exchanges)
    span.set("initial_cut", result.initial_cut)
    span.set("final_cut", result.final_cut)
    if result.migration_moves or result.migration_cost:
        span.set("moves", result.migration_moves)
        span.set("migration_cost", result.migration_cost)


def oee_partition(circuit: Circuit, network: QuantumNetwork,
                  initial: Optional[QubitMapping] = None,
                  max_rounds: int = 50,
                  use_link_distances: Optional[bool] = None) -> OEEResult:
    """Partition ``circuit``'s qubits across ``network`` by extreme exchange.

    Args:
        circuit: the program (any basis; interaction counts are taken from
            multi-qubit gates directly).
        network: target distributed system; node data-qubit capacities bound
            the per-node load (the initial block mapping is balanced and
            exchanges preserve balance).
        initial: optional starting mapping; defaults to the balanced block
            mapping.
        max_rounds: safety bound on improvement passes.
        use_link_distances: weight each cut edge by the routed distance
            between its endpoints' nodes — the route's link-latency sum on a
            heterogeneous link model, the hop count otherwise — so the
            objective prices the physical links a static mapping would
            actually cross instead of the bare remote-gate count.  Default
            ``None`` auto-enables this exactly when the network carries
            non-uniform or latency-weighted entanglement routes.

    Returns:
        An :class:`OEEResult` whose ``mapping`` minimises (locally) the number
        of remote multi-qubit gates — hop-weighted when distance weighting
        is engaged.
    """
    with stage("oee-partition") as span:
        result = _search(circuit, network, initial, max_rounds,
                         use_link_distances)
        _record_oee_span(span, result)
        return result


def migration_distance_matrix(network: QuantumNetwork) -> List[List[float]]:
    """Node-by-node cost of moving one data qubit between nodes.

    On a routed network this is the routing table's
    :meth:`~repro.hardware.routing.RoutingTable.cost_matrix` — the routed
    link-cost of the teleport that would carry the qubit (link-latency sums
    under a heterogeneous link model, hop counts otherwise), in the same
    units the distance-weighted cut objective uses.  Unrouted (all-to-all)
    networks charge one unit per move, matching the unweighted remote-gate
    cut.
    """
    routing = getattr(network, "routing", None)
    if routing is not None:
        return routing.cost_matrix()
    return _unit_distances(network.num_nodes).tolist()


def oee_repartition(circuit: Circuit, network: QuantumNetwork,
                    previous: QubitMapping,
                    max_rounds: int = 50,
                    use_link_distances: Optional[bool] = None,
                    migration_costs: Optional[List[List[float]]] = None
                    ) -> OEEResult:
    """Incrementally re-partition for one program phase, migration-aware.

    The phase-structured pipeline calls this between burst phases: the
    search is *seeded* from the previous phase's mapping and every exchange
    is judged by the phase's cut-weight reduction **minus the migration
    bill** — each qubit that ends up away from its previous node is charged
    the routed distance of the teleport that moves it
    (:func:`migration_distance_matrix`, i.e. ``RoutingTable.cost_matrix``
    on a routed network).  A remap therefore only happens where the
    phase's communication savings beat the cost of physically migrating
    the qubits, and a phase whose traffic already suits the previous
    placement returns it unchanged.

    Args:
        circuit: the gates of one phase (any basis; interaction counts are
            taken from multi-qubit gates directly).
        network: target distributed system.
        previous: the mapping the previous phase executed under (the seed;
            also the reference migration is priced against).
        max_rounds: safety bound on improvement passes.
        use_link_distances: as in :func:`oee_partition` — weight cut edges
            by routed distance (auto-engaged on non-uniform routes).
        migration_costs: override the per-move distance matrix (defaults to
            :func:`migration_distance_matrix`).

    Returns:
        An :class:`OEEResult` whose ``mapping`` locally minimises
        ``phase cut weight + migration cost``; ``migration_moves`` and
        ``migration_cost`` report the moves relative to ``previous``.
    """
    with stage("oee-repartition") as span:
        result = _search(circuit, network, previous, max_rounds,
                         use_link_distances,
                         migration=(migration_costs
                                    if migration_costs is not None
                                    else migration_distance_matrix(network)))
        _record_oee_span(span, result)
        return result


def _search(circuit: Circuit, network: QuantumNetwork,
            seed: Optional[QubitMapping], max_rounds: int,
            use_link_distances: Optional[bool],
            migration: Optional[List[List[float]]] = None) -> OEEResult:
    """The one extreme-exchange search behind both entry points.

    Starts from ``seed`` (the balanced block mapping when ``None``).
    Without ``migration`` each active qubit pivots against the active
    qubits after it; with it every qubit is a candidate partner and each
    exchange pays the change in its migration bill away from ``seed``.
    """
    n = circuit.num_qubits
    network.validate_capacity(n)
    if seed is None:
        seed = block_mapping(n, network)
    elif seed.num_qubits != n:
        raise ValueError("seed mapping and circuit disagree on qubit count")
    distances = _topology_distances(network, use_link_distances)
    D = (_unit_distances(network.num_nodes) if distances is None
         else np.asarray(distances, dtype=np.float64))
    edges = _interaction_edges(circuit)
    lower, upper, weight = edges
    W = np.zeros((n, n))
    W[lower, upper] = weight
    W[upper, lower] = weight
    home = seed.as_dict()
    state = _GainState(
        W, np.array([home[q] for q in range(n)], dtype=np.int64), D,
        migration=(None if migration is None
                   else np.asarray(migration, dtype=np.float64)))
    initial_cut = _cut(edges, D, state.A)

    # Only qubits with at least one interaction can change the cut (or, in
    # a repartition, *earn* a move).  A repartition lets any qubit serve
    # as the displaced swap partner; exchanges preserve per-node load, so
    # capacity is maintained by construction.
    active = _active_qubits(W)
    all_qubits = np.arange(n)
    num_exchanges = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        improved = False
        for i, qubit_a in enumerate(active.tolist()):
            # Greedy "extreme" step: find the partner with the largest gain.
            partners = active[i + 1:] if migration is None else all_qubits
            best_partner = state.best_partner(qubit_a, partners)
            if best_partner is not None:
                state.swap(qubit_a, best_partner)
                num_exchanges += 1
                improved = True
        if not improved:
            break

    assignment = {q: int(node) for q, node in enumerate(state.A)}
    result = OEEResult(QubitMapping(assignment, network), initial_cut,
                       _cut(edges, D, state.A), num_exchanges, rounds)
    if migration is not None:
        moves = [q for q in range(n) if assignment[q] != home[q]]
        result.migration_moves = len(moves)
        result.migration_cost = sum(migration[home[q]][assignment[q]]
                                    for q in moves)
    return result
