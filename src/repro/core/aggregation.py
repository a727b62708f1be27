"""Communication aggregation pass (Section 4.2 of the paper).

The pass rewrites a distributed circuit so that remote two-qubit gates
between one qubit (the *hub*) and one node are grouped into contiguous
*burst communication blocks*.  Grouping is only allowed when justified by
gate commutation, so the rewritten program is always semantically equivalent
to the input (``AggregationResult.to_circuit()`` flattens the result back to
a plain circuit, which the tests check against the original by simulation).

The implementation folds the paper's three steps into one scan per
qubit-node pair, processed in descending order of remote-gate count
(preprocessing), with commutation-based deferral of intervening gates
(linear merge, Algorithm 1) and one sweep over all pairs as the iterative
refinement (a pair's scan absorbs all of its pair's remote gates, so one
sweep already reaches the point where no block grows):

* gates allowed inside a block (single-qubit gates on the hub, local gates
  confined to the remote node) are absorbed in place;
* any other intervening gate is *deferred* past the block when it commutes
  with every gate already in the block, mirroring Algorithm 1's
  ``non_commute_gates`` bookkeeping;
* a gate that can neither be absorbed nor deferred closes the block, which
  is the paper's "break" case.

The program is held as one doubly linked sequence of item handles for the
whole run.  A pair's scan only walks its *windows*, each from an eligible
remote gate (found by its handle) to the item that closes its block, and
splices the window's rewritten items back in place; the items between
windows are never touched.  Inside a window the open block and the deferred
items are each held in a :class:`~repro.ir.commutation.GateFrontier`, so a
candidate is only checked against the gates it could fail to commute with.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..comm.blocks import CommBlock
from ..ir.circuit import Circuit
from ..ir.commutation import GateFrontier, commutation_cache_stats, commutes
from ..ir.gates import Gate
from ..obs.span import stage
from ..partition.mapping import QubitMapping

__all__ = ["AggregationResult", "aggregate_communications", "CommAggregator"]

#: Items of the rewritten program: plain gates or burst blocks.
ScheduleItem = Union[Gate, CommBlock]

#: Operations that can never live in, commute past, or defer around a block.
_BLOCKING_NAMES = frozenset({"barrier", "measure", "reset"})

#: Work counters of one run (see :attr:`CommAggregator.stats`).
_STATS = ("sweeps", "pair_passes", "window_items", "relinked_items",
          "deferred_checks", "commute_calls")


@dataclass
class AggregationResult:
    """Output of the aggregation pass."""

    circuit: Circuit
    mapping: QubitMapping
    items: List[ScheduleItem]
    blocks: List[CommBlock]

    def to_circuit(self) -> Circuit:
        """Flatten the aggregated program back into a plain circuit.

        The result is a commutation-justified reordering of the input
        circuit; it is used by the verification tests and by downstream
        passes that need a gate-level view.
        """
        out = Circuit(self.circuit.num_qubits, name=f"{self.circuit.name}-aggregated")
        for item in self.items:
            if isinstance(item, CommBlock):
                out.extend(item.gates)
            else:
                out.append(item)
        return out

    def num_blocks(self) -> int:
        return len(self.blocks)

    def remote_gates_in_blocks(self) -> int:
        return sum(b.num_remote_gates(self.mapping) for b in self.blocks)

    def block_sizes(self) -> List[int]:
        """Remote-gate count per block (the burst sizes)."""
        return [b.num_remote_gates(self.mapping) for b in self.blocks]


def _item_qubits(item: ScheduleItem):
    return item.touched_set if isinstance(item, CommBlock) else item.qubit_set


class _OpenBlock:
    """A block being grown by one pair's scan, and the items deferred past it."""

    __slots__ = ("block", "gates", "deferred", "handles", "deferred_by_qubit",
                 "pending", "stats")

    def __init__(self, block: CommBlock, stats: Dict[str, int]) -> None:
        self.block = block
        #: The block's gates, for commutation queries.
        self.gates = GateFrontier()
        self.deferred: List[ScheduleItem] = []
        #: The deferred items' handles, in the same order.
        self.handles: List[int] = []
        #: qubit -> indices of the deferred items touching it.
        self.deferred_by_qubit: Dict[int, List[int]] = {}
        #: Every gate of the deferred items, for commutation queries.
        self.pending = GateFrontier()
        self.stats = stats

    def absorb(self, gate: Gate) -> None:
        self.block.append(gate)
        self.gates.add(gate)

    def defer(self, handle: int, item: ScheduleItem) -> None:
        index = len(self.deferred)
        self.deferred.append(item)
        self.handles.append(handle)
        if isinstance(item, CommBlock):
            for gate in item.gates:
                self.pending.add(gate)
        else:
            self.pending.add(item)
        for qubit in _item_qubits(item):
            self.deferred_by_qubit.setdefault(qubit, []).append(index)

    def commutes_with_block(self, item: ScheduleItem) -> bool:
        """Does every gate of ``item`` commute with every block gate?"""
        gates = item.gates if isinstance(item, CommBlock) else (item,)
        for gate in gates:
            if gate.name in _BLOCKING_NAMES or not self.gates.commutes(gate):
                return False
        return True

    def commutes_with_deferred(self, item: ScheduleItem) -> bool:
        """May ``item`` move ahead of every deferred item?"""
        if not self.deferred:
            return True
        self.stats["deferred_checks"] += 1
        if isinstance(item, Gate):
            return self.pending.commutes(item)
        # A block candidate keeps the original pass's check: each deferred
        # item is tested against the first of the block's gates reaching it.
        checked: Set[int] = set()
        for gate in item.gates:
            for qubit in gate.qubits:
                for index in self.deferred_by_qubit.get(qubit, ()):
                    if index in checked:
                        continue
                    checked.add(index)
                    other = self.deferred[index]
                    for other_gate in (other.gates if isinstance(other, CommBlock)
                                       else (other,)):
                        self.stats["commute_calls"] += 1
                        if not commutes(gate, other_gate):
                            return False
        return True

    def close(self, emitted: List[int]) -> None:
        """Emit the deferred items' handles after the block."""
        emitted.extend(self.handles)
        self.stats["commute_calls"] += self.gates.calls + self.pending.calls


class CommAggregator:
    """Implements the aggregation pass over one circuit and mapping.

    The pass is *indexed*: each raw remote gate's two qubit-node pairs are
    computed once, every pair keeps the handles of its gates in program
    order, and the pair histogram that drives the processing order is
    maintained as gates are absorbed into blocks.  The program lives in one
    doubly linked sequence of integer handles (``_item``, ``_next`` and
    ``_prev``), so a pair's pass starts each window at its raw gate's handle
    and splices the window's output between the window's neighbours: it
    costs its windows and nothing else.  The output is identical to the
    original scanning implementation, which is preserved in
    :mod:`repro.core.aggregation_reference` and diffed against this one by
    the equivalence tests.
    """

    def __init__(self, circuit: Circuit, mapping: QubitMapping,
                 use_commutation: bool = True) -> None:
        if circuit.num_qubits != mapping.num_qubits:
            raise ValueError("circuit and mapping disagree on qubit count")
        self.circuit = circuit
        self.mapping = mapping
        self.use_commutation = use_commutation
        #: node index per program qubit (dense list; mapping covers 0..n-1).
        self._node: List[int] = [mapping.node_of(q)
                                 for q in range(circuit.num_qubits)]
        by_node: Dict[int, Set[int]] = defaultdict(set)
        for qubit, node in enumerate(self._node):
            by_node[node].add(qubit)
        self._qubits_on: Dict[int, frozenset] = {
            node: frozenset(qubits) for node, qubits in by_node.items()}
        # Filled by the index stage.  Handle ``h`` holds item ``_item[h]``
        # between ``_prev[h]`` and ``_next[h]``; handle 0 is the sentinel
        # that is both head and tail, the input gates take 1..n in program
        # order and each new block takes the next free handle.
        self._item: List[Optional[ScheduleItem]] = []
        self._next: List[int] = []
        self._prev: List[int] = []
        # Each raw (not yet absorbed) remote gate's handle -> its two
        # (hub, remote-node) pairs, each pair's gate handles in program
        # order, and the live pair histogram.
        self._raw_pairs: Dict[int, Tuple[Tuple[int, int], Tuple[int, int]]] = {}
        self._pair_gates: Dict[Tuple[int, int], List[int]] = {}
        self._histogram: Counter = Counter()
        #: Work done by the last run: sweeps, pair passes, items walked in
        #: windows, handles the windows' splices emitted, deferred-item
        #: commutation checks and ``commutes`` calls.
        self.stats: Dict[str, int] = dict.fromkeys(_STATS, 0)

    # ------------------------------------------------------------------ public

    def run(self) -> AggregationResult:
        """Aggregate the circuit; ``stats`` then counts this run's work.

        One refinement sweep over all pairs is the whole search: a pair's
        pass absorbs every raw gate of its pair and no pass makes a gate
        raw again, so the first sweep leaves no raw gate and a second one
        would find nothing to do.
        """
        self.stats = dict.fromkeys(_STATS, 0)
        with stage("index"):
            self._build_index(self.circuit.gates)
        with stage("sweep"):
            self.stats["sweeps"] = 1
            for pair in self._pairs_by_weight_indexed():
                if self._histogram[pair]:
                    self._aggregate_pair(pair)
        with stage("leftovers"):
            items = self._blockify_leftovers()
        blocks = [item for item in items if isinstance(item, CommBlock)]
        return AggregationResult(self.circuit, self.mapping, items, blocks)

    # -------------------------------------------------------------- the index

    def _build_index(self, gates: Sequence[Gate]) -> None:
        """Link the gates and index per-gate remote pairs and per-pair gates.

        A remote two-qubit gate on qubits ``(a, b)`` is eligible for exactly
        the two directed pairs ``(a, node(b))`` and ``(b, node(a))``; both
        are recorded so eligibility during a pair sweep is one dict lookup.
        """
        count = len(gates)
        self._item = [None, *gates]
        self._next = [*range(1, count + 1), 0]
        self._prev = [count, *range(count)]
        node = self._node
        raw_pairs = self._raw_pairs = {}
        pair_gates = self._pair_gates = defaultdict(list)
        histogram = self._histogram = Counter()
        for handle, gate in enumerate(gates, 1):
            if self._is_remote_2q(gate):
                a, b = gate.qubits
                pair_a = (a, node[b])
                pair_b = (b, node[a])
                raw_pairs[handle] = (pair_a, pair_b)
                pair_gates[pair_a].append(handle)
                pair_gates[pair_b].append(handle)
                histogram[pair_a] += 1
                histogram[pair_b] += 1

    def _pairs_by_weight_indexed(self) -> List[Tuple[int, int]]:
        """Pairs with raw gates left, by descending count, then by pair."""
        ordered = sorted(((pair, count) for pair, count
                          in self._histogram.items() if count > 0),
                         key=lambda kv: (-kv[1], kv[0]))
        return [pair for pair, _ in ordered]

    def _absorb_into_block(self, handle: int) -> None:
        """Account for the raw remote gate at ``handle`` moving into a block."""
        pair_a, pair_b = self._raw_pairs.pop(handle)
        self._histogram[pair_a] -= 1
        self._histogram[pair_b] -= 1

    def _is_remote_2q(self, gate: Gate) -> bool:
        return gate.is_two_qubit and self.mapping.is_remote(gate)

    # --------------------------------------------------------- per-pair sweep

    def _aggregate_pair(self, pair: Tuple[int, int]) -> None:
        """One pass of ``pair``: a window from each of its raw gates.

        Every raw gate of the pair opens or joins a block, so the pass
        leaves the pair with none.
        """
        self.stats["pair_passes"] += 1
        raw_pairs = self._raw_pairs
        for handle in self._pair_gates.pop(pair):
            if handle in raw_pairs:  # not yet absorbed, here or by its other pair
                self._window(handle, pair)

    def _window(self, start: int, pair: Tuple[int, int]) -> None:
        """Grow blocks for ``pair`` from the raw gate at handle ``start``.

        Walks to the item that closes the last block (the end of the
        program when none does) and splices the blocks, deferred items and
        closing item in place of the walked items.
        """
        hub, remote_node = pair
        hub_node = self._node[hub]
        remote_qubits = self._qubits_on[remote_node]
        items = self._item
        nxt = self._next
        raw_pairs = self._raw_pairs
        use_commutation = self.use_commutation
        emitted: List[int] = []
        current: Optional[_OpenBlock] = None
        cursor = start
        walked = 0
        while cursor:
            handle = cursor
            item = items[handle]
            cursor = nxt[handle]
            walked += 1
            # Eligibility (a raw remote 2q gate of this exact pair) is one
            # precomputed lookup; gates already inside blocks are not linked.
            eligible_pairs = raw_pairs.get(handle)
            if eligible_pairs is not None and (pair == eligible_pairs[0]
                                               or pair == eligible_pairs[1]):
                # Pulling this gate into the open block hops it over every
                # deferred item, so that move must be commutation-justified.
                if current is not None and current.deferred and not (
                        use_commutation and current.commutes_with_deferred(item)):
                    current.close(emitted)
                    current = None
                if current is None:
                    block = CommBlock(hub_qubit=hub, hub_node=hub_node,
                                      remote_node=remote_node)
                    emitted.append(self._new_handle(block))
                    current = _OpenBlock(block, self.stats)
                current.absorb(item)
                self._absorb_into_block(handle)
                continue

            if self._allowed_in_block(item, hub, remote_qubits):
                # Absorbing keeps the gate at its original position relative
                # to the block; it only reorders against deferred items.
                if not current.deferred or (
                        use_commutation and current.commutes_with_deferred(item)):
                    current.absorb(item)
                    continue
                if use_commutation:
                    current.defer(handle, item)
                    continue
            elif use_commutation and (
                    current.gates.qubits.isdisjoint(_item_qubits(item))
                    or current.commutes_with_block(item)) \
                    and current.commutes_with_deferred(item):
                current.defer(handle, item)
                continue

            # The "break" case: the item closes the block and the window.
            current.close(emitted)
            emitted.append(handle)
            break
        else:
            current.close(emitted)
        self.stats["window_items"] += walked
        self._splice(self._prev[start], emitted, cursor)

    def _new_handle(self, item: ScheduleItem) -> int:
        """A fresh, not yet linked handle for ``item``."""
        self._item.append(item)
        self._next.append(0)
        self._prev.append(0)
        return len(self._item) - 1

    def _splice(self, before: int, run: List[int], after: int) -> None:
        """Link ``run`` between ``before`` and ``after``, replacing the
        handles that were between them."""
        nxt = self._next
        prev = self._prev
        for handle in run:
            nxt[before] = handle
            prev[handle] = before
            before = handle
        nxt[before] = after
        prev[after] = before
        self.stats["relinked_items"] += len(run)

    def _allowed_in_block(self, item: ScheduleItem, hub: int,
                          remote_qubits: Set[int]) -> bool:
        """May ``item`` live inside a block for (hub, remote node)?

        Allowed content: single-qubit gates on the hub (they run on the hub
        or on its cat copy), and local gates entirely on the remote node's
        qubits (they run at the remote node while the communication is live).

        Absorbing a hub-side gate into the communication window is only
        sound because we know how it commutes with the remote gates, so in
        the commutation-free ablation (Figure 17a) only partner-side gates
        may be absorbed.
        """
        if not isinstance(item, Gate):
            return False
        if item.name in _BLOCKING_NAMES:
            return False
        if item._is_single and item.qubits[0] == hub:
            return self.use_commutation
        return bool(item.qubits) and item._qubit_set <= remote_qubits

    # ------------------------------------------------------------- leftovers

    def _blockify_leftovers(self) -> List[ScheduleItem]:
        """The linked items, each raw remote two-qubit gate wrapped in a
        singleton block."""
        out: List[ScheduleItem] = []
        items = self._item
        nxt = self._next
        raw_pairs = self._raw_pairs
        handle = nxt[0]
        while handle:
            item = items[handle]
            if handle in raw_pairs:
                a, b = item.qubits
                block = CommBlock(hub_qubit=a, hub_node=self._node[a],
                                  remote_node=self._node[b])
                block.append(item)
                item = block
            out.append(item)
            handle = nxt[handle]
        return out


def aggregate_communications(circuit: Circuit, mapping: QubitMapping,
                             use_commutation: bool = True) -> AggregationResult:
    """Run the communication aggregation pass.

    Args:
        circuit: input circuit, ideally already decomposed to the CX basis.
        mapping: static qubit-to-node assignment.
        use_commutation: disable to reproduce the "no commutation" ablation of
            Figure 17(a) (blocks are then only formed from physically adjacent
            remote gates).

    Under an active :mod:`repro.obs` tracer the pass runs inside an
    ``aggregation`` span with ``index``/``sweep``/``leftovers`` children.
    The span carries block/item counts, the work counters of
    :attr:`CommAggregator.stats` and the commutation oracle's cache
    activity for this pass (hit/miss deltas).
    """
    with stage("aggregation") as span:
        aggregator = CommAggregator(circuit, mapping,
                                    use_commutation=use_commutation)
        if not span.enabled:
            return aggregator.run()
        before = commutation_cache_stats()
        result = aggregator.run()
        after = commutation_cache_stats()
        span.set("gates", len(circuit))
        span.set("blocks", len(result.blocks))
        span.set("items", len(result.items))
        span.set("commutation_hits", after["hits"] - before["hits"])
        span.set("commutation_misses", after["misses"] - before["misses"])
        for name, value in aggregator.stats.items():
            span.set(name, value)
        return result
