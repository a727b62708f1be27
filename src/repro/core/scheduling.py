"""Communication scheduling pass (Section 4.4 of the paper).

The pass turns an assigned program (a sequence of local gates and burst
blocks) into a timed schedule on the distributed machine and reports the
program latency.  It models exactly the constraints the paper discusses:

* each node owns two communication qubits, so at most two remote
  communications can touch a node at any time (``CommResourceTracker``);
* every communication needs an EPR pair whose preparation takes ``t_epr``
  and can be pipelined with earlier computation when a communication qubit
  is free early;
* commutable blocks that share a qubit or node may run in parallel
  ("more block-level parallelism", Figure 12/13);
* sequential TP-Comm blocks that teleport the same hub qubit are fused into
  a teleportation chain, saving ``(n-1)(t_epr + t_tele)`` (Figure 14).

The plain ``greedy`` strategy (used for the Figure 17(c) ablation and for
the baselines) runs the same resource-constrained list scheduler but keeps
strict program order between blocks and performs no fusion.

:func:`plan_phased_schedule` is the one plan builder: per-phase TP fusion,
per-phase dependency graphs, then a barrier or an overlap stitch across the
phase boundaries.  :func:`schedule_phased_communications` is the one
scheduler: it prices every plan of one named, preference-ordered candidate
pool (burst or plain, overlapped or barrier boundaries) and keeps the
earliest-finishing one.  A static program is the one-phase case of both
(:func:`plan_schedule` and :func:`schedule_communications`: the
assignment's own mapping, no boundary list, the barrier plans), so every
plan carries per-item mappings and phases.  :func:`run_plan` is the one
event loop over a :class:`SchedulePlan`; the analytical scheduler and the
execution engine in :mod:`repro.sim` drive it with their own placement
steps over per-item facts computed once per plan
(:meth:`SchedulePlan.op_profiles`).  Only comm ops and zero-duration items
reach a placement step; the loop settles every other gate itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Set, Tuple, Union)

from ..comm.blocks import CommBlock, CommScheme
from ..comm.cost import block_latency
from ..hardware.epr import CommResourceTracker
from ..hardware.network import QuantumNetwork
from ..hardware.timing import LatencyModel
from ..ir.commutation import commutes, pauli_axes
from ..ir.gates import Gate
from ..obs.span import stage
from ..partition.mapping import QubitMapping
from .aggregation import ScheduleItem
from .assignment import AssignmentResult

__all__ = ["ScheduledOp", "ScheduleResult", "SchedulePlan", "OpProfile",
           "plan_schedule", "run_plan", "schedule_communications",
           "FusedTPChain",
           "prep_latency_for_pairs", "MigrationOp", "plan_phased_schedule",
           "schedule_phased_communications", "compute_boundary_bubble"]


@dataclass(frozen=True)
class MigrationOp:
    """One inter-phase qubit migration: teleport ``qubit`` between nodes.

    Emitted by the phase-structured pipeline when dynamic remapping moves a
    data qubit to a new home between burst phases.  Scheduled and simulated
    like a single teleport: one end-to-end EPR pair on the (routed)
    ``source``–``target`` pair, comm qubits occupied on both endpoints for
    the preparation plus one ``t_teleport``.
    """

    qubit: int
    source: int
    target: int

    @property
    def nodes(self) -> Tuple[int, int]:
        return (self.source, self.target)


@dataclass
class FusedTPChain:
    """A run of TP-Comm blocks on the same hub qubit, fused into one chain.

    The hub is teleported node-to-node around the chain (A -> B -> C -> ... -> A)
    instead of bouncing back to its home node between blocks, which removes
    ``n - 1`` teleportations and their EPR preparations from the critical path.
    """

    blocks: List[CommBlock]

    @property
    def hub_qubit(self) -> int:
        return self.blocks[0].hub_qubit

    @property
    def touched_set(self) -> Set[int]:
        """Cached union of the chain's block qubit sets (do not mutate)."""
        cached = getattr(self, "_touched", None)
        if cached is None:
            cached = set()
            for block in self.blocks:
                cached |= block.touched_set
            self._touched = cached
        return cached

    def touched_qubits(self) -> Tuple[int, ...]:
        return tuple(sorted(self.touched_set))

    def nodes(self) -> Tuple[int, ...]:
        involved: Set[int] = set()
        for block in self.blocks:
            involved.update(block.nodes)
        return tuple(sorted(involved))

    def itinerary(self) -> Tuple[int, ...]:
        """Nodes visited by the hub in teleport order: home -> remotes -> home."""
        home = self.blocks[0].hub_node
        return (home, *(block.remote_node for block in self.blocks), home)

    def hop_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The node pair of every teleport hop of the itinerary, in order.

        One EPR pair is consumed per hop; hops between co-located stops
        (consecutive blocks on the same remote node) need none and are
        skipped.  Unlike the all-pairs closure of :meth:`nodes`, these are
        the links the chain actually uses.
        """
        itinerary = self.itinerary()
        return tuple((a, b) for a, b in zip(itinerary, itinerary[1:])
                     if a != b)

    @property
    def gates(self) -> List[Gate]:
        return [gate for block in self.blocks for gate in block.gates]

    def num_teleports(self) -> int:
        """Teleportations after fusion: one per hop plus the final return."""
        return len(self.blocks) + 1

    def duration(self, mapping: QubitMapping, latency: LatencyModel) -> float:
        body = sum(latency.body_latency(block.gates) for block in self.blocks)
        return self.num_teleports() * latency.t_teleport + body


#: Units handled by the scheduler.
SchedulableItem = Union[Gate, CommBlock, FusedTPChain, "MigrationOp"]


class ScheduledOp(NamedTuple):
    """One scheduled operation with its time window.

    A tuple record (one is built per plan item and candidate): immutable,
    hashable and picklable, with no per-instance ``__dict__``.  Derive a
    changed copy with ``op._replace(end=...)``.  The field order is part
    of the record: :mod:`repro.persist.codec` constructs it positionally.
    """

    index: int
    kind: str                       # "gate", "cat", "tp", "tp-chain"
    start: float
    end: float
    nodes: Tuple[int, ...] = ()
    num_remote_gates: int = 0
    #: Assignment items covered by this op (> 1 for fused TP chains).
    num_items: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ScheduleResult:
    """Timed schedule of the whole program."""

    ops: List[ScheduledOp]
    latency: float
    resources: CommResourceTracker
    num_comm_ops: int
    num_fused_chains: int
    #: Which schedule variant produced this result: "burst" (commutation-aware
    #: dependencies + TP fusion) or "plain" (strict program order).  The
    #: execution simulator replays the same variant.
    mode: str = "plain"
    #: Whether the winning plan used zero-bubble (overlapped) phase
    #: boundaries instead of hard barriers.  The simulator replays the same
    #: boundary semantics; always ``False`` for single-phase schedules.
    overlap: bool = False
    #: Idle time summed over phase boundaries: the gap between the last
    #: compute op of each phase and the first compute op of the next,
    #: clamped at zero (migration work inside the gap is not subtracted).
    #: Zero for single-phase schedules; the quantity the overlap pass exists
    #: to shrink.
    boundary_bubble: float = 0.0

    def comm_ops(self) -> List[ScheduledOp]:
        return [op for op in self.ops if op.kind != "gate"]

    def num_scheduled_items(self) -> int:
        """Assignment items covered by the schedule (fused chains count all)."""
        return sum(op.num_items for op in self.ops)


# ---------------------------------------------------------------------------
# Fusion of sequential TP-Comm blocks
# ---------------------------------------------------------------------------

def _touched_set(item: SchedulableItem) -> frozenset:
    """Cached qubit set of a block, fused chain or gate (migrations join a
    plan only in the phase stitches, after the dependency graphs)."""
    if isinstance(item, (CommBlock, FusedTPChain)):
        return item.touched_set
    return item.qubit_set


class _PairwiseCommutation:
    """Memoised item-pair commutation checks within one plan build.

    ``items_commute`` asks "does every gate of A commute with every gate of
    B?" — naively |A| x |B| gate-pair queries.  Each item's gates are filed
    per qubit and :func:`~repro.ir.commutation.pauli_axes` entry there, so
    on each shared qubit only gates filed under different axes (or with no
    axis) are checked: gate pairs on disjoint qubits commute, and a pair
    matching on the axis of every shared qubit commutes exactly (the rule
    :class:`~repro.ir.commutation.GateFrontier` relies on), so a pair that
    can fail is checked on some shared qubit.  A pair that mismatches on
    several shared qubits may be checked once per such qubit.  The
    scheduler asks about the same item pairs repeatedly across the lookback
    window, so the verdict is memoised per unordered id pair.  Memoisation
    is only valid while the item objects stay alive and unchanged, which
    holds for the duration of one plan build.
    """

    def __init__(self) -> None:
        self._memo: Dict[Tuple[int, int], bool] = {}
        self._index: Dict[int, Dict[int, Dict[Optional[str], List[Gate]]]] = {}
        #: Item pairs whose verdict was computed, and the gate-pair
        #: ``commutes`` calls that took.
        self.item_pairs = 0
        self.calls = 0

    def items_commute(self, a: SchedulableItem, b: SchedulableItem) -> bool:
        ia, ib = id(a), id(b)
        key = (ia, ib) if ia <= ib else (ib, ia)
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._compute(a, b)
            self._memo[key] = verdict
        return verdict

    def _gates_by_axis(self, item: SchedulableItem
                       ) -> Dict[int, Dict[Optional[str], List[Gate]]]:
        """qubit -> Pauli axis there -> the item's gates filed under it."""
        index = self._index.get(id(item))
        if index is None:
            index = {}
            gates = (item.gates if isinstance(item, (CommBlock, FusedTPChain))
                     else (item,))
            for gate in gates:
                for qubit, axis in zip(gate.qubits, pauli_axes(gate)):
                    by_axis = index.get(qubit)
                    if by_axis is None:
                        index[qubit] = {axis: [gate]}
                    elif axis in by_axis:
                        by_axis[axis].append(gate)
                    else:
                        by_axis[axis] = [gate]
            self._index[id(item)] = index
        return index

    def _compute(self, a: SchedulableItem, b: SchedulableItem) -> bool:
        shared = _touched_set(a) & _touched_set(b)
        if not shared:
            return True
        self.item_pairs += 1
        index_a = self._gates_by_axis(a)
        index_b = self._gates_by_axis(b)
        for qubit in shared:
            by_axis_a = index_a.get(qubit)
            by_axis_b = index_b.get(qubit)
            if by_axis_a is None or by_axis_b is None:
                continue
            for axis_a, gates_a in by_axis_a.items():
                for axis_b, gates_b in by_axis_b.items():
                    if axis_a is not None and axis_a == axis_b:
                        continue
                    for ga in gates_a:
                        for gb in gates_b:
                            self.calls += 1
                            if not commutes(ga, gb):
                                return False
        return True


def fuse_tp_chains(items: Sequence[ScheduleItem],
                   oracle: Optional[_PairwiseCommutation] = None
                   ) -> List[SchedulableItem]:
    """Fuse runs of TP blocks sharing a hub qubit into :class:`FusedTPChain` units.

    Two TP blocks are fused when they teleport the same hub qubit and every
    intervening item either avoids the chain's qubits entirely or commutes
    with all of its blocks (so hopping the state directly from one remote
    node to the next is a commutation-justified reordering).  An intervening
    item that touches the hub always closes the chain: the hub is away from
    its home node mid-chain, so nothing else may act on it.
    """
    if oracle is None:
        oracle = _PairwiseCommutation()
    out: List[SchedulableItem] = []
    open_chain: List[CommBlock] = []
    chain_qubits: Set[int] = set()

    def close() -> None:
        nonlocal open_chain, chain_qubits
        if len(open_chain) >= 2:
            out.append(FusedTPChain(blocks=open_chain))
        elif open_chain:
            out.append(open_chain[0])
        open_chain = []
        chain_qubits = set()

    for item in items:
        if isinstance(item, CommBlock) and item.scheme is CommScheme.TP:
            if open_chain and open_chain[-1].hub_qubit != item.hub_qubit:
                close()
            open_chain.append(item)
            chain_qubits |= item.touched_set
            continue
        if isinstance(item, Gate) and item.is_barrier:
            close()
            out.append(item)
            continue
        if open_chain:
            touched = _touched_set(item)
            if (open_chain[-1].hub_qubit in touched
                    or (not touched.isdisjoint(chain_qubits)
                        and not all(oracle.items_commute(item, block)
                                    for block in open_chain))):
                close()
        out.append(item)
    close()
    return out


# ---------------------------------------------------------------------------
# Dependency graph construction
# ---------------------------------------------------------------------------

def _item_qubits(item: SchedulableItem, num_qubits: int) -> Tuple[int, ...]:
    if isinstance(item, (CommBlock, FusedTPChain)):
        return item.touched_qubits()
    if item.is_barrier:
        return tuple(range(num_qubits))
    return item.qubits


def _build_dependencies(items: Sequence[SchedulableItem], num_qubits: int,
                        commutation_aware: bool,
                        lookback: int = 12,
                        oracle: Optional[_PairwiseCommutation] = None,
                        collect_open: bool = False):
    """Return predecessor lists per item index.

    With ``commutation_aware`` enabled, an item may skip the dependency on
    the most recent items sharing a qubit when they commute (pairwise,
    bounded lookback), which is what allows two commutable blocks with a
    shared qubit or node to run in parallel.  Without it no pair may skip,
    which is plain program order: each item depends on the latest earlier
    item on each of its qubits.

    With ``collect_open`` the return value is ``(preds, open_qubits)``
    where ``open_qubits[i]`` is the set of item ``i``'s qubits for which
    *no* predecessor was chosen — the qubit was never touched before, or
    everything touching it within the window commuted and no beyond-window
    anchor exists.  The overlap stitch uses these to gate items on the
    cross-phase retire frontier of exactly the qubits whose ordering the
    intra-phase graph does not already carry.
    """
    open_qubits: List[Set[int]] = []
    if oracle is None:
        oracle = _PairwiseCommutation()
    preds: List[List[int]] = [[] for _ in items]
    history: Dict[int, List[int]] = {q: [] for q in range(num_qubits)}
    for index, item in enumerate(items):
        # Iterate the cached qubit set directly: the iteration order does
        # not influence the chosen predecessor set (each qubit's history
        # chain is scanned independently and ``chosen``/``preds`` are
        # order-insensitive).
        if isinstance(item, Gate) and item.is_barrier:
            qubits = range(num_qubits)
        else:
            qubits = _touched_set(item)
        chosen: Set[int] = set()
        open_set: Set[int] = set()
        both_blocks_possible = commutation_aware and isinstance(
            item, (CommBlock, FusedTPChain))
        for qubit in qubits:
            chain = history[qubit]
            if not chain:
                open_set.add(qubit)
                continue
            depends_on_someone = False
            for offset, prev_index in enumerate(reversed(chain)):
                if offset >= lookback:
                    chosen.add(prev_index)
                    depends_on_someone = True
                    break
                prev_item = items[prev_index]
                if (both_blocks_possible
                        and isinstance(prev_item, (CommBlock, FusedTPChain))
                        and oracle.items_commute(item, prev_item)):
                    # Commutable block pair: no ordering needed; keep looking
                    # further back for the real dependency.
                    continue
                chosen.add(prev_index)
                depends_on_someone = True
                break
            if not depends_on_someone:
                # Everything in the window commuted; anchor on the oldest item
                # beyond the window if one exists.
                if len(chain) > lookback:
                    chosen.add(chain[-lookback - 1])
                else:
                    open_set.add(qubit)
        preds[index] = sorted(chosen)
        if collect_open:
            open_qubits.append(open_set)
        for qubit in qubits:
            history[qubit].append(index)
    return (preds, open_qubits) if collect_open else preds


# ---------------------------------------------------------------------------
# Schedule planning (shared with the execution simulator)
# ---------------------------------------------------------------------------

@dataclass
class SchedulePlan:
    """Schedulable items plus their dependency graph.

    Both the analytical list scheduler below and the discrete-event execution
    engine in :mod:`repro.sim` consume the same plan, so deterministic
    simulation replays exactly the units and ordering constraints the
    analytical latency was computed from.
    """

    items: List[SchedulableItem]
    preds: List[List[int]]
    num_fused_chains: int
    burst: bool
    #: Qubit mapping each item executes under.  A phased program's blocks
    #: were aggregated under their phase's mapping, so durations and
    #: remote-gate counts must be derived from that mapping, not the
    #: program-level one; a static plan repeats the assignment's mapping.
    item_mappings: List[QubitMapping]
    #: Phase index per item (all ``0`` for a static plan).  Migrations carry
    #: the index of the phase they move into; the boundary a migration
    #: belongs to is therefore ``item_phases[i] - 1``.
    item_phases: List[int]
    #: Whether phase boundaries were stitched with the zero-bubble overlap
    #: stitch (per-qubit migration/compute edges) instead of hard barriers.
    overlap: bool = False
    #: Lazily built caches shared by every consumer of the plan (the
    #: analytical scheduler and all Monte-Carlo trial engines).
    _succs: Optional[List[List[int]]] = field(
        default=None, repr=False, compare=False)
    _profiles: Optional[Dict[int, Tuple[QuantumNetwork,
                                        List["OpProfile"]]]] = field(
        default=None, repr=False, compare=False)
    _groups: Optional[Dict[int, Tuple[QuantumNetwork, "CommGroups"]]] = field(
        default=None, repr=False, compare=False)
    _settle: Optional[Dict[int, Tuple[QuantumNetwork, List[float]]]] = field(
        default=None, repr=False, compare=False)

    @property
    def mode(self) -> str:
        return "burst" if self.burst else "plain"

    @property
    def num_phases(self) -> int:
        """Phases up to the last one holding items (1 for a static plan).

        Items are laid out phase by phase, so the last item carries the
        highest phase index.
        """
        return self.item_phases[-1] + 1 if self.item_phases else 1

    def __getstate__(self):
        """Pickle without the lazy caches.

        ``_profiles``, ``_groups`` and ``_settle`` are keyed by object
        identity (``id(network)``), so their entries are meaningless in
        another process; every cache rebuilds on demand.  Dropping them is what
        lets a plan travel to Monte-Carlo worker processes (and,
        eventually, a compile cache) at minimal size.
        """
        state = self.__dict__.copy()
        state["_succs"] = None
        state["_profiles"] = None
        state["_groups"] = None
        state["_settle"] = None
        return state

    def __setstate__(self, state):
        """Restore a plan, re-initialising the lazy caches explicitly.

        The default ``__dict__.update`` restore would happen to leave the
        cache slots at whatever ``__getstate__`` stored, but that symmetry
        is an accident callers should not depend on; resetting here makes
        unpickled plans safe by construction: every cache rebuilds on demand.
        """
        self.__dict__.update(state)
        self._succs = None
        self._profiles = None
        self._groups = None
        self._settle = None

    def successors(self) -> List[List[int]]:
        if self._succs is None:
            succs: List[List[int]] = [[] for _ in self.items]
            for index, plist in enumerate(self.preds):
                for p in plist:
                    succs[p].append(index)
            self._succs = succs
        return self._succs

    def op_profiles(self, network: QuantumNetwork) -> List["OpProfile"]:
        """Per-item facts shared by every schedule candidate and trial.

        Durations, nodes, EPR prep pairs and their deterministic prep
        latency, remote-gate counts and reservation labels depend only on
        the plan (items and their mappings) and the network, so they are
        computed once here instead of once per candidate or trial per op.
        """
        if self._profiles is None:
            self._profiles = {}
        entry = self._profiles.get(id(network))
        # The cached entry keeps a reference to the network (so its id
        # cannot be reused while the entry lives) and is validated by
        # identity before use.
        if entry is not None and entry[0] is network:
            return entry[1]
        latency = network.latency
        # Pair lists repeat across items: price and route each one once.
        by_pairs: Dict[Tuple[Tuple[int, int], ...], Tuple] = {}
        # Gates of equal duration share one (immutable) profile.
        gates: Dict[float, OpProfile] = {}
        profiles: List[OpProfile] = []
        mappings = self.item_mappings
        for index, item in enumerate(self.items):
            if isinstance(item, Gate):
                duration = latency.gate_latency(item)
                profile = gates.get(duration)
                if profile is None:
                    profile = gates[duration] = OpProfile(
                        kind="gate", duration=duration, nodes=(), num_items=1)
                profiles.append(profile)
                continue
            item_mapping = mappings[index]
            if isinstance(item, MigrationOp):
                kind, duration = "migration", latency.t_teleport
                nodes, num_items, pairs = item.nodes, 1, (item.nodes,)
                num_remote = 0
            elif isinstance(item, FusedTPChain):
                kind = "tp-chain"
                duration = item.duration(item_mapping, latency)
                nodes, num_items = tuple(item.nodes()), len(item.blocks)
                pairs = item.hop_pairs()
                num_remote = sum(block.num_remote_gates(item_mapping)
                                 for block in item.blocks)
            else:
                kind = "tp" if item.scheme is CommScheme.TP else "cat"
                duration = block_latency(item, item_mapping, latency)
                nodes, num_items = tuple(item.nodes), 1
                pairs = (nodes,)
                num_remote = item.num_remote_gates(item_mapping)
            facts = by_pairs.get(pairs)
            if facts is None:
                facts = by_pairs[pairs] = _pair_facts(network, pairs)
            profiles.append(OpProfile(
                kind=kind, duration=duration, nodes=nodes,
                num_items=num_items, prep_pairs=pairs, prep=facts[0],
                links=facts[1], epr_pairs=facts[2],
                num_remote_gates=num_remote, label=f"{kind}-{index}"))
        self._profiles[id(network)] = (network, profiles)
        return profiles

    def settle_durations(self, network: QuantumNetwork) -> List[float]:
        """Per item, the duration :func:`run_plan` settles it with, or 0.0.

        Positive for a gate of positive duration, which books nothing and
        is settled off the heap; 0.0 for every item that goes through the
        heap and ``place``: comm ops and zero-duration items (barriers).
        Built from :meth:`op_profiles` and cached like them.
        """
        if self._settle is None:
            self._settle = {}
        entry = self._settle.get(id(network))
        if entry is not None and entry[0] is network:
            return entry[1]
        durations = [profile.duration
                     if profile.kind == "gate" and profile.duration > 0
                     else 0.0 for profile in self.op_profiles(network)]
        self._settle[id(network)] = (network, durations)
        return durations

    def comm_groups(self, network: QuantumNetwork) -> "CommGroups":
        """The plan's comm ops grouped for per-run folds over their records.

        Built once per plan and network from :meth:`op_profiles` and cached
        like them, so the simulator's per-trial metrics fold visits only
        comm ops.  Every group lists its item indices in ascending order,
        and groups appear in order of first occurrence, so a fold over the
        groups adds each sum in the order of a walk over the whole plan.
        """
        if self._groups is None:
            self._groups = {}
        entry = self._groups.get(id(network))
        if entry is not None and entry[0] is network:
            return entry[1]
        kinds: Dict[str, List[int]] = {}
        nodes: Dict[int, List[int]] = {}
        links: Dict[Tuple[int, int], List] = {}  # [generations, indices]
        needed_prep = needed_epr = 0
        for index, profile in enumerate(self.op_profiles(network)):
            if profile.kind == "gate":
                continue
            kinds.setdefault(profile.kind, []).append(index)
            for node in profile.nodes:
                nodes.setdefault(node, []).append(index)
            for pair, count in profile.links:
                link = links.get(pair)
                if link is None:
                    link = links[pair] = [0, []]
                link[0] += count
                link[1].append(index)
            needed_prep += len(profile.prep_pairs) or 1
            needed_epr += profile.epr_pairs or 1
        groups = CommGroups(
            kinds=tuple((kind, tuple(indices))
                        for kind, indices in kinds.items()),
            nodes=tuple((node, tuple(indices))
                        for node, indices in nodes.items()),
            links=tuple((pair, generations, tuple(indices))
                        for pair, (generations, indices) in links.items()),
            needed_prep=needed_prep, needed_epr=needed_epr)
        self._groups[id(network)] = (network, groups)
        return groups


class OpProfile(NamedTuple):
    """Static execution profile of one plan unit (see ``op_profiles``).

    A tuple record like :class:`ScheduledOp` (immutable, no ``__dict__``;
    ``profile._replace(...)`` derives a changed copy).
    """

    kind: str
    duration: float
    nodes: Tuple[int, ...]
    num_items: int
    #: Node pairs whose EPR preparations this op consumes — the single
    #: hub<->remote pair for a block, the consecutive teleport hops of the
    #: itinerary for a fused chain (NOT the all-pairs closure of ``nodes``),
    #: empty for local gates.  Pairs may repeat: a chain revisiting a link
    #: generates one EPR pair per visit.
    prep_pairs: Tuple[Tuple[int, int], ...] = ()
    #: :func:`prep_latency_for_pairs` of ``prep_pairs``; 0 for local gates.
    prep: float = 0.0
    #: (physical link, multiplicity) the prep pairs' routes occupy, sorted.
    links: Tuple[Tuple[Tuple[int, int], int], ...] = ()
    #: Physical EPR pairs behind ``prep_pairs`` (swaps included).
    epr_pairs: int = 0
    #: Remote gates the op implements under its (phase) mapping.
    num_remote_gates: int = 0
    #: Label of the op's comm-qubit reservations; empty for local gates.
    label: str = ""


class CommGroups(NamedTuple):
    """A plan's comm ops grouped by kind, node and link (see ``comm_groups``)."""

    #: ``(kind, item indices)`` per comm-op kind.
    kinds: Tuple[Tuple[str, Tuple[int, ...]], ...]
    #: ``(node, item indices)``: the comm ops holding a comm qubit there.
    nodes: Tuple[Tuple[int, Tuple[int, ...]], ...]
    #: ``(physical link, EPR generations, item indices)``: the comm ops
    #: whose prep pairs' routes occupy the link, and how many generations
    #: they run on it in total.
    links: Tuple[Tuple[Tuple[int, int], int, Tuple[int, ...]], ...]
    #: EPR pairs the comm ops need without retries, at least one per op:
    #: one per prep pair, or one per physical pair (swaps included).
    needed_prep: int
    needed_epr: int


def plan_schedule(assignment: AssignmentResult, burst: bool) -> SchedulePlan:
    """Build the schedulable units and dependency graph for one program.

    The static case of :func:`plan_phased_schedule`: one phase under the
    assignment's own mapping and no boundary list.  Burst plans fuse TP
    chains and build commutation-aware dependencies; plain plans keep
    strict program order.  The plan is memoised on the assignment (see
    :func:`plan_phased_schedule`), so the burst-greedy scheduler, the plain
    fallback and the execution simulator all share the same two plans.
    """
    return _memoised_plan(((assignment.mapping, assignment),), None, burst,
                          overlap=False)


def plan_phased_schedule(phases: Sequence,
                         migrations: Optional[Sequence[Sequence[MigrationOp]]],
                         burst: bool, overlap: bool = False) -> SchedulePlan:
    """Build one combined plan over a phase-structured program.

    ``phases`` are the pipeline's ``CompiledPhase`` objects (anything with
    ``mapping`` and ``assignment`` works); ``migrations`` holds one list of
    :class:`MigrationOp` per phase boundary (``len(phases) - 1`` entries),
    or is ``None`` for a static program, whose one phase has no boundary
    list (as in ``CompiledProgram.migrations``).

    Construction fuses TP chains per phase (burst only), builds each
    phase's dependency graph under its own mapping (commutation-aware under
    ``burst``, strict program order otherwise), then stitches the phases.
    With ``overlap`` off, phase boundaries are hard barriers
    (:func:`_stitch_barrier`); with ``overlap`` on, they become per-qubit
    edges (:func:`_stitch_overlap`): a migration starts as soon as its
    qubit's last earlier-phase ops retire and later-phase items wait only
    on the frontiers of the qubits they touch.  With a single phase both
    stitches give the static plan's items and dependencies.

    Plans are memoised on the first phase's assignment object, keyed by
    ``(burst, overlap)`` and shared with :func:`plan_schedule`, so the
    analytical scheduler and the execution simulator replay the *same* plan
    object — deterministic replay then matches the analytical latency
    bit-for-bit.  The cached entry keeps the exact mapping, assignment and
    migration objects it was built from and is validated by identity, so a
    call with a different phase or migration list (sharing the same first
    assignment) rebuilds instead of returning a stale plan.
    """
    return _memoised_plan(tuple((p.mapping, p.assignment) for p in phases),
                          migrations, burst, overlap)


def _memoised_plan(segments: Tuple[Tuple[QubitMapping, AssignmentResult], ...],
                   migrations: Optional[Sequence[Sequence[MigrationOp]]],
                   burst: bool, overlap: bool) -> SchedulePlan:
    """The memo shared by every entry point, then :func:`_build_plan`.

    ``migrations`` is ``None`` for a static program; that only picks the
    span: ``plan-burst``/``plan-plain`` for static programs,
    ``plan-phased-*`` for phase-structured ones.
    """
    moves = tuple(tuple(boundary) for boundary in migrations or ())
    if len(moves) != max(0, len(segments) - 1):
        raise ValueError("need exactly one migration list per phase boundary")
    anchor = segments[0][1]
    cache = getattr(anchor, "_plan_cache", None)
    if cache is None:
        cache = anchor._plan_cache = {}
    source = (segments, moves)
    entry = cache.get((burst, overlap))
    if entry is not None and _same_source(entry[0], source):
        return entry[1]

    mode = "burst" if burst else "plain"
    phased = migrations is not None
    with stage(f"plan-phased-{mode}" if phased else f"plan-{mode}") as span:
        plan, oracle = _build_plan(segments, moves, burst, overlap)
        if span.enabled:
            span.set("items", len(plan.items))
            span.set("fused_chains", plan.num_fused_chains)
            if phased:
                span.set("phases", len(segments))
                span.set("overlap", 1 if overlap else 0)
            else:
                span.set("item_pairs", oracle.item_pairs)
                span.set("commute_calls", oracle.calls)
    # When fusion changed nothing, the burst and plain plans schedule the
    # same units — share one profile cache so durations are computed once.
    other = cache.get((not burst, overlap))
    if other is not None and _same_source(other[0], source):
        other_plan = other[1]
        if (len(other_plan.items) == len(plan.items)
                and all(a is b for a, b in zip(other_plan.items, plan.items))):
            if other_plan._profiles is None:
                other_plan._profiles = {}
            plan._profiles = other_plan._profiles
    cache[(burst, overlap)] = (source, plan)
    return plan


def _same_source(cached, source) -> bool:
    """Whether two ``(segments, migrations)`` hold the same objects."""
    (old_segments, old_moves), (segments, moves) = cached, source
    return (len(old_segments) == len(segments)
            and all(m is n and a is b for (m, a), (n, b)
                    in zip(old_segments, segments))
            and len(old_moves) == len(moves)
            and all(len(x) == len(y) and all(m is n for m, n in zip(x, y))
                    for x, y in zip(old_moves, moves)))


def _build_plan(segments: Sequence[Tuple[QubitMapping, AssignmentResult]],
                migrations: Sequence[Sequence[MigrationOp]], burst: bool,
                overlap: bool) -> Tuple[SchedulePlan, _PairwiseCommutation]:
    """Fuse, build dependencies and stitch; returns the plan and its oracle."""
    num_qubits = segments[0][1].aggregation.circuit.num_qubits
    oracle = _PairwiseCommutation()
    phase_items = [fuse_tp_chains(assignment.items, oracle=oracle) if burst
                   else list(assignment.items) for _, assignment in segments]
    num_fused = sum(isinstance(item, FusedTPChain)
                    for items in phase_items for item in items) if burst else 0
    # Collecting open-qubit sets slows a dependency build markedly, and only
    # the overlap stitch reads them, for the phases after the first; only
    # those phases collect them: ``(preds, open_qubits)`` there, ``preds``
    # everywhere else.
    deps = [_build_dependencies(items, num_qubits, commutation_aware=burst,
                                oracle=oracle,
                                collect_open=overlap and index > 0)
            for index, items in enumerate(phase_items)]
    if overlap:
        stitched = _stitch_overlap(segments, phase_items, deps, migrations,
                                   num_qubits)
    else:
        stitched = _stitch_barrier(segments, phase_items, deps, migrations)
    items, preds, item_mappings, item_phases = stitched
    return SchedulePlan(items=items, preds=preds, num_fused_chains=num_fused,
                        burst=burst, item_mappings=item_mappings,
                        item_phases=item_phases, overlap=overlap), oracle


def _stitch_barrier(segments, phase_items, deps, migrations):
    """Hard phase boundaries: migrations wait for every earlier-phase sink.

    Each boundary's migrations depend on all sinks of the phase before it,
    and every source of the later phase depends on the boundary (on the
    earlier phase's sinks directly when no qubit moves).  Returns the
    combined ``(items, preds, item_mappings, item_phases)``, grown from
    phase 0's item and predecessor lists as built.
    """
    item_mappings: List[QubitMapping] = []
    item_phases: List[int] = []
    barrier: List[int] = []
    last = len(segments) - 1
    for index, (mapping, _) in enumerate(segments):
        local_items, local_preds = phase_items[index], deps[index]
        if index:
            offset = len(items)
            preds.extend([p + offset for p in plist] if plist
                         else list(barrier) for plist in local_preds)
            items.extend(local_items)
        else:
            offset, items, preds = 0, local_items, local_preds
        item_mappings.extend([mapping] * len(local_items))
        item_phases.extend([index] * len(local_items))
        if index == last:
            break
        has_successor = [False] * len(local_items)
        for plist in local_preds:
            for p in plist:
                has_successor[p] = True
        sinks = [offset + local for local, linked in enumerate(has_successor)
                 if not linked] or barrier
        moves = migrations[index]
        if moves:
            start = len(items)
            preds.extend(list(sinks) for _ in moves)
            items.extend(moves)
            item_mappings.extend([segments[index + 1][0]] * len(moves))
            item_phases.extend([index + 1] * len(moves))
            barrier = list(range(start, len(items)))
        else:
            barrier = sinks
    return items, preds, item_mappings, item_phases


def _stitch_overlap(segments, phase_items, deps, migrations, num_qubits):
    """Zero-bubble boundaries: per-qubit edges instead of a global barrier.

    A *retire frontier* per qubit tracks, across the stream, the plan
    indices whose completion releases the qubit: all of the latest phase's
    items touching it, or the migration that moved it.  The boundary rules:

    * a migration of qubit ``q`` depends on **every** phase-N item touching
      ``q`` (commutation-aware intra-phase graphs do not totally order a
      qubit's touchers, so depending only on the last one would be unsound)
      — or on ``q``'s previous frontier when phase N never touched it;
    * a phase-N+1 item waits on the frontier of each qubit it has no
      intra-phase dependency on (its open qubits); every other qubit's
      cross-phase ordering is inherited transitively through the item's
      intra-phase predecessor chain, which bottoms out at that qubit's
      first toucher — itself gated on the frontier.

    The resulting invariant (checked by ``schedule-causality`` /
    ``migration-legality``): for any qubit, items of a later phase touching
    it never start before items of an earlier phase touching it retire, and
    migrations fall strictly between the phases they separate — per qubit,
    not globally, which is what lets migration teleports overlap with
    unrelated compute on both sides of the boundary.  Phase 0 has no
    frontier to wait on, so the plan grows from its item and predecessor
    lists as built.
    """
    item_mappings: List[QubitMapping] = []
    item_phases: List[int] = []
    cross: Dict[int, List[int]] = {}
    last = len(segments) - 1
    for index, (mapping, _) in enumerate(segments):
        local_items = phase_items[index]
        if index:
            offset = len(items)
            local_preds, open_qubits = deps[index]
            for plist, open_set in zip(local_preds, open_qubits):
                chosen = {p + offset for p in plist}
                for qubit in open_set:
                    chosen.update(cross.get(qubit, ()))
                preds.append(sorted(chosen))
            items.extend(local_items)
        else:
            offset, items, preds = 0, local_items, deps[index]
        item_mappings.extend([mapping] * len(local_items))
        item_phases.extend([index] * len(local_items))
        if index == last:
            break
        touched: Dict[int, List[int]] = {}
        for local, item in enumerate(local_items):
            for qubit in _item_qubits(item, num_qubits):
                touched.setdefault(qubit, []).append(offset + local)
        next_mapping = segments[index + 1][0]
        move_frontier: Dict[int, List[int]] = {}
        for move in migrations[index]:
            waits = touched.get(move.qubit) or cross.get(move.qubit, [])
            move_frontier[move.qubit] = [len(items)]
            preds.append(sorted(set(waits)))
            items.append(move)
            item_mappings.append(next_mapping)
            item_phases.append(index + 1)
        cross.update(touched)
        cross.update(move_frontier)
    return items, preds, item_mappings, item_phases


# ---------------------------------------------------------------------------
# Resource-constrained list scheduling
# ---------------------------------------------------------------------------

def run_plan(plan: SchedulePlan, network: QuantumNetwork,
             place: Callable[[int, float], Any],
             settled: Callable[[int, float, float], Any]) -> List[Any]:
    """Run every plan item in ``(ready time, index)`` order; ops by index.

    An item is ready at the latest end of its predecessors.  Only the
    items whose placement matters go through the heap: comm ops and
    zero-duration items (barriers).  ``place(index, ready)`` returns their
    op record (anything with an ``end``): the analytical scheduler books
    the deterministic EPR preparation, the execution engine samples it.
    One loop on both sides is why deterministic replay reproduces the
    analytical schedule.

    A gate of positive duration (:meth:`SchedulePlan.settle_durations`)
    books nothing, so it is settled off the heap as soon as its last
    predecessor ends, at ``end = ready + duration``; its record is
    ``settled(index, ready, end)``, built in one index-order sweep after
    the loop.  The heap still pops its items in the order a walk over
    every item would: an item a settled gate releases is ready strictly
    after that gate's ready time, so it cannot tie with an item already
    popped, and an item a heaped item releases is pushed at the same pop.
    ``place`` therefore sees the same calls with the same ready times.
    """
    succs = plan.successors()
    settle = plan.settle_durations(network)
    indegree = [len(plist) for plist in plan.preds]
    ready_time = [0.0] * len(indegree)
    # A settled gate's slot holds its end until the sweep.
    placed: List[Any] = [None] * len(indegree)
    stack = [index for index, degree in enumerate(indegree)
             if not degree and settle[index]]
    # Ascending (0.0, index) pairs already satisfy the heap invariant.
    heap = [(0.0, index) for index, degree in enumerate(indegree)
            if not degree and not settle[index]]
    heappop, heappush = heapq.heappop, heapq.heappush
    while True:
        if stack:
            index = stack.pop()
            end = placed[index] = ready_time[index] + settle[index]
        elif heap:
            ready, index = heappop(heap)
            op = placed[index] = place(index, ready)
            end = op.end
        else:
            break
        for succ in succs[index]:
            if end > ready_time[succ]:
                ready_time[succ] = end
            degree = indegree[succ] - 1
            indegree[succ] = degree
            if not degree:
                if settle[succ]:
                    stack.append(succ)
                else:
                    heappush(heap, (ready_time[succ], succ))
    if any(indegree):  # pragma: no cover - defensive
        raise RuntimeError("dependency cycle in schedule plan")
    for index, duration in enumerate(settle):
        if duration:
            placed[index] = settled(index, ready_time[index], placed[index])
    return placed


#: The schedule candidate pool, ``(name, burst, overlap)`` in preference
#: order: a later candidate wins only with a strictly lower
#: :func:`_rank`, so each refinement (burst over plain, overlapped over
#: barrier boundaries) keeps the plan it refines in the pool and is never
#: worse than it.  ``"greedy"`` keeps the plain plans, a compile without
#: ``overlap`` (every static one) the barrier plans.
_CANDIDATES = (
    ("overlap_burst", True, True),
    ("overlap_plain", False, True),
    ("burst", True, False),
    ("plain", False, False),
)


def _rank(result: ScheduleResult) -> Tuple[float, float]:
    """Order of schedule candidates: latency, then boundary bubble."""
    return result.latency, result.boundary_bubble


def schedule_communications(assignment: AssignmentResult,
                            network: QuantumNetwork,
                            strategy: str = "burst-greedy") -> ScheduleResult:
    """Schedule an assigned program onto the network.

    Args:
        assignment: output of :func:`repro.core.assignment.assign_communications`.
        network: the distributed machine (latency model and comm-qubit counts).
        strategy: ``"burst-greedy"`` for the full AutoComm schedule
            (commutation-aware block parallelism plus TP fusion) or
            ``"greedy"`` for the plain as-soon-as-possible schedule used by
            the baselines and the Figure 17(c) ablation.

    The one-phase call of :func:`schedule_phased_communications`: the
    burst-aware schedule is adaptive — commutation-driven reordering and TP
    fusion almost always help, but greedy list scheduling under resource
    constraints can exhibit anomalies, so ``"burst-greedy"`` also schedules
    the plain plan and keeps it only when it finishes strictly earlier.
    """
    return _pick_schedule(((assignment.mapping, assignment),), None, network,
                          strategy, overlap=False)


def schedule_phased_communications(
        phases: Sequence,
        migrations: Optional[Sequence[Sequence[MigrationOp]]],
        network: QuantumNetwork, strategy: str = "burst-greedy",
        overlap: bool = False) -> ScheduleResult:
    """Schedule a program's phases and migration teleports.

    ``phases`` and ``migrations`` are as in :func:`plan_phased_schedule`.
    Every candidate of :data:`_CANDIDATES` that ``strategy`` and
    ``overlap`` select is scheduled and the earliest-finishing one wins
    (see :func:`_pick_schedule`), so the overlapped schedule is *never
    worse* than the barrier one in latency or boundary bubble.
    """
    return _pick_schedule(tuple((p.mapping, p.assignment) for p in phases),
                          migrations, network, strategy, overlap)


def _pick_schedule(segments: Tuple[Tuple[QubitMapping, AssignmentResult], ...],
                   migrations: Optional[Sequence[Sequence[MigrationOp]]],
                   network: QuantumNetwork, strategy: str,
                   overlap: bool) -> ScheduleResult:
    """Schedule each selected candidate plan; keep the earliest-finishing one.

    Candidates come from :data:`_CANDIDATES` in preference order; each sets
    a ``latency_<name>`` counter on the ``scheduling`` span and gets its
    ``boundary_bubble`` (0.0 for single-phase plans).  The best barrier plan
    is the least by :func:`_rank`; an overlapped plan may replace it only
    when it is neither slower nor bubblier, so an overlapped compile never
    worsens either metric of the barrier compile.
    """
    if strategy not in ("burst-greedy", "greedy"):
        raise ValueError(f"unknown scheduling strategy {strategy!r}")
    plain_only = strategy == "greedy"
    with stage("scheduling") as span:
        scored: List[ScheduleResult] = []
        for name, burst, overlapped in _CANDIDATES:
            if (burst and plain_only) or (overlapped and not overlap):
                continue
            plan = _memoised_plan(segments, migrations, burst, overlapped)
            candidate = _execute_plan(plan, network)
            candidate.boundary_bubble = compute_boundary_bubble(
                plan, candidate.ops)
            span.set(f"latency_{name}", candidate.latency)
            scored.append(candidate)
        barrier = min((c for c in scored if not c.overlap), key=_rank)
        result = min((c for c in scored
                      if c.latency <= barrier.latency
                      and c.boundary_bubble <= barrier.boundary_bubble),
                     key=_rank)
        if span.enabled:
            span.set("ops", len(result.ops))
            span.set("comm_ops", result.num_comm_ops)
            span.set("fused_chains", result.num_fused_chains)
            span.set("latency", result.latency)
            span.set("burst_won", 1 if result.mode == "burst" else 0)
            span.set("overlap_won", 1 if result.overlap else 0)
            span.set("boundary_bubble", result.boundary_bubble)
        return result


def _settled_gate(index: int, start: float, end: float) -> ScheduledOp:
    """The record of a gate :func:`run_plan` settled off the heap."""
    return ScheduledOp(index, "gate", start, end)


def _execute_plan(plan: SchedulePlan,
                  network: QuantumNetwork) -> ScheduleResult:
    """Resource-constrained list scheduling of one plan (phase-aware)."""
    profiles = plan.op_profiles(network)
    resources = CommResourceTracker(network)
    reserve = resources.reserve_joint

    def place(index: int, ready: float) -> ScheduledOp:
        profile = profiles[index]
        if profile.kind == "gate":  # zero duration, such as a barrier
            return ScheduledOp(index, "gate", ready, ready + profile.duration)
        _, start, end = reserve(profile.nodes, ready, profile.duration,
                                profile.prep, profile.label)
        return ScheduledOp(index, profile.kind, start, end, profile.nodes,
                           profile.num_remote_gates, profile.num_items)

    ops = run_plan(plan, network, place, _settled_gate)
    return ScheduleResult(ops=ops,
                          latency=max((op.end for op in ops), default=0.0),
                          resources=resources,
                          num_comm_ops=sum(op.kind != "gate" for op in ops),
                          num_fused_chains=plan.num_fused_chains,
                          mode=plan.mode, overlap=plan.overlap)


def prep_latency_for_pairs(network: QuantumNetwork,
                           pairs: Sequence[Tuple[int, int]]) -> float:
    """EPR preparation latency for the pairs one op actually consumes.

    All preparations run concurrently, so the op waits for the slowest
    pair.  For a fused TP chain ``pairs`` are the consecutive hops of the
    teleport itinerary (home -> remote_1 -> ... -> home), *not* the
    all-pairs closure of the chain's node set — the itinerary never links
    most of those pairs, and on a non-uniform topology charging the
    slowest unused pair overstates the chain's critical path.

    Each pair's latency is ``QuantumNetwork.epr_latency`` — on a routed
    topology the link-latency combination of the pair's entanglement route
    (heterogeneous links priced individually by the network's
    :class:`~repro.hardware.links.LinkModel`), so the analytical schedule
    charges exactly what the per-link discrete-event replay realises.
    """
    if not pairs:
        return network.latency.t_epr
    return max(network.epr_latency(a, b) for a, b in pairs)


def _pair_facts(network: QuantumNetwork, pairs: Sequence[Tuple[int, int]]
                ) -> Tuple[float, Tuple[Tuple[Tuple[int, int], int], ...],
                           int]:
    """Prep latency, ((link, multiplicity), ...) and physical pair count.

    Each end-to-end pair occupies every physical link of its entanglement
    route during generation (swapping splices the per-link pairs); two
    pairs riding the same link need two capacity slots.
    """
    multiplicity: Dict[Tuple[int, int], int] = {}
    for a, b in pairs:
        for link in network.route_links(a, b):
            multiplicity[link] = multiplicity.get(link, 0) + 1
    return (prep_latency_for_pairs(network, pairs),
            tuple(sorted(multiplicity.items())), sum(multiplicity.values()))


def _epr_prep_latency(network: QuantumNetwork, nodes: Sequence[int]) -> float:
    """Pre-PR prep-latency accounting over a node set's all-pairs closure.

    Kept verbatim for :mod:`repro.core.scheduling_reference`: it charges a
    fused chain the slowest pair of its *node set*, including pairs the
    teleport itinerary never links — the fused-chain latency bug fixed by
    :func:`prep_latency_for_pairs`.  On uniform (all-to-all) latencies the
    two agree, which is what the reference-equivalence tests exercise.
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        return network.latency.t_epr
    return max(network.epr_latency(a, b)
               for i, a in enumerate(nodes) for b in nodes[i + 1:])


def _reserve_comm(resources: CommResourceTracker, nodes: Sequence[int],
                  ready: float, duration: float, prep: float,
                  label: str) -> float:
    """Book a communication's earliest window; return its protocol start."""
    return resources.reserve_joint(nodes, ready, duration, prep, label)[1]


# ---------------------------------------------------------------------------
# Phase boundaries (dynamic inter-phase remapping)
# ---------------------------------------------------------------------------

def compute_boundary_bubble(plan: SchedulePlan,
                            ops: Sequence[ScheduledOp]) -> float:
    """Compute-idle time at phase boundaries of one scheduled phased plan.

    For each pair of consecutive phases, the bubble is the gap between the
    last compute (non-migration) op of the earlier phase retiring and the
    first compute op of the later phase starting — the stretch where the
    compute pipeline is stalled and only migration teleports (if anything)
    run.  Under barrier boundaries every migration bill shows up here;
    overlapped schedules pull later-phase compute into the window, shrinking
    the gap (clamped at zero when the phase windows interleave).  This is
    the phased-schedule analogue of a pipeline bubble in zero-bubble
    pipeline parallelism.  Returns ``0.0`` for single-phase plans.
    """
    if plan.num_phases < 2:
        return 0.0
    windows: Dict[int, List[float]] = {}
    for op in ops:
        if isinstance(plan.items[op.index], MigrationOp):
            continue
        phase = plan.item_phases[op.index]
        window = windows.get(phase)
        if window is None:
            windows[phase] = [op.start, op.end]
        else:
            window[0] = min(window[0], op.start)
            window[1] = max(window[1], op.end)
    if len(windows) < 2:
        return 0.0
    ordered = sorted(windows)
    return sum(max(0.0, windows[later][0] - windows[earlier][1])
               for earlier, later in zip(ordered, ordered[1:]))
