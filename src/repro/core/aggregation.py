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
(linear merge, Algorithm 1) and repeated sweeps until no block grows
(iterative refinement):

* gates allowed inside a block (single-qubit gates on the hub, local gates
  confined to the remote node) are absorbed in place;
* any other intervening gate is *deferred* past the block when it commutes
  with every gate already in the block, mirroring Algorithm 1's
  ``non_commute_gates`` bookkeeping;
* a gate that can neither be absorbed nor deferred closes the block, which
  is the paper's "break" case.

A pair's scan only walks its *windows*, each from an eligible remote gate
to the item that closes its block; the items between windows are copied
as list slices.  Inside a window the open block and the deferred items are
each held in a :class:`~repro.ir.commutation.GateFrontier`, so a candidate
is only checked against the gates it could fail to commute with.
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
_STATS = ("sweeps", "pair_passes", "window_items", "deferred_checks",
          "commute_calls")


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

    __slots__ = ("block", "gates", "deferred", "deferred_by_qubit", "pending",
                 "stats")

    def __init__(self, block: CommBlock, stats: Dict[str, int]) -> None:
        self.block = block
        #: The block's gates, for commutation queries.
        self.gates = GateFrontier()
        self.deferred: List[ScheduleItem] = []
        #: qubit -> indices of the deferred items touching it.
        self.deferred_by_qubit: Dict[int, List[int]] = {}
        #: Every gate of the deferred items, for commutation queries.
        self.pending = GateFrontier()
        self.stats = stats

    def absorb(self, gate: Gate) -> None:
        self.block.append(gate)
        self.gates.add(gate)

    def defer(self, item: ScheduleItem) -> None:
        index = len(self.deferred)
        self.deferred.append(item)
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

    def close(self, out: List[ScheduleItem], out_ids: List[int]) -> None:
        """Emit the deferred items after the block."""
        out.extend(self.deferred)
        out_ids.extend(map(id, self.deferred))
        self.stats["commute_calls"] += self.gates.calls + self.pending.calls


class CommAggregator:
    """Implements the aggregation pass over one circuit and mapping.

    The pass is *indexed*: each raw remote gate's two qubit-node pairs are
    computed once, every pair keeps its gates in program order, and the
    pair histogram that drives the processing order is maintained as gates
    are absorbed into blocks.  A pair's pass finds its next raw gate with a
    C-level ``list.index`` over the items' ``id()`` values and copies the
    stretch before it as a slice, so it walks only its windows.  The output
    is identical to the original scanning implementation, which is
    preserved in :mod:`repro.core.aggregation_reference` and diffed against
    this one by the equivalence tests.
    """

    def __init__(self, circuit: Circuit, mapping: QubitMapping,
                 use_commutation: bool = True, max_sweeps: int = 3) -> None:
        if circuit.num_qubits != mapping.num_qubits:
            raise ValueError("circuit and mapping disagree on qubit count")
        self.circuit = circuit
        self.mapping = mapping
        self.use_commutation = use_commutation
        self.max_sweeps = max_sweeps
        #: node index per program qubit (dense list; mapping covers 0..n-1).
        self._node: List[int] = [mapping.node_of(q)
                                 for q in range(circuit.num_qubits)]
        by_node: Dict[int, Set[int]] = defaultdict(set)
        for qubit, node in enumerate(self._node):
            by_node[node].add(qubit)
        self._qubits_on: Dict[int, frozenset] = {
            node: frozenset(qubits) for node, qubits in by_node.items()}
        # Filled by run(): id(gate) -> its two (hub, remote-node) pairs, the
        # raw (not yet absorbed) occurrences per gate id -- a gate object may
        # appear more than once -- each pair's gates in program order, the
        # live pair histogram, and the raw count.
        self._gate_pairs: Dict[int, Tuple[Tuple[int, int], Tuple[int, int]]] = {}
        self._raw: Counter = Counter()
        self._pair_gates: Dict[Tuple[int, int], List[Gate]] = {}
        self._histogram: Counter = Counter()
        self._raw_remaining = 0
        self._num_blocks = 0
        #: Work done by the last run: sweeps, pair passes, items walked in
        #: windows, deferred-item commutation checks and ``commutes`` calls.
        self.stats: Dict[str, int] = dict.fromkeys(_STATS, 0)

    # ------------------------------------------------------------------ public

    def run(self) -> AggregationResult:
        with stage("index"):
            items: List[ScheduleItem] = list(self.circuit.gates)
            ids = [id(item) for item in items]
            self._build_index(items)
        previous_block_count = -1
        for _ in range(self.max_sweeps):
            with stage("sweep"):
                self.stats["sweeps"] += 1
                for pair in self._pairs_by_weight_indexed():
                    if self._histogram[pair] == 0:
                        continue
                    items, ids = self._aggregate_pair(items, ids, pair)
            if (self._raw_remaining == 0
                    or self._num_blocks == previous_block_count):
                break
            previous_block_count = self._num_blocks
        with stage("leftovers"):
            items = self._blockify_leftovers(items)
        blocks = [item for item in items if isinstance(item, CommBlock)]
        return AggregationResult(self.circuit, self.mapping, items, blocks)

    # -------------------------------------------------------------- the index

    def _build_index(self, items: Sequence[ScheduleItem]) -> None:
        """Precompute per-gate remote pairs, per-pair gates and the histogram.

        A remote two-qubit gate on qubits ``(a, b)`` is eligible for exactly
        the two directed pairs ``(a, node(b))`` and ``(b, node(a))``; both
        are recorded so eligibility during a pair sweep is one dict lookup.
        """
        node = self._node
        gate_pairs = self._gate_pairs = {}
        raw = self._raw = Counter()
        pair_gates = self._pair_gates = defaultdict(list)
        histogram = self._histogram = Counter()
        for item in items:
            if isinstance(item, Gate) and self._is_remote_2q(item):
                a, b = item.qubits
                pair_a = (a, node[b])
                pair_b = (b, node[a])
                gate_pairs[id(item)] = (pair_a, pair_b)
                raw[id(item)] += 1
                pair_gates[pair_a].append(item)
                pair_gates[pair_b].append(item)
                histogram[pair_a] += 1
                histogram[pair_b] += 1
        self._raw_remaining = sum(raw.values())

    def _pairs_by_weight_indexed(self) -> List[Tuple[int, int]]:
        """Pairs with raw gates left, by descending count, then by pair."""
        ordered = sorted(((pair, count) for pair, count
                          in self._histogram.items() if count > 0),
                         key=lambda kv: (-kv[1], kv[0]))
        return [pair for pair, _ in ordered]

    def _absorb_into_block(self, gate: Gate) -> None:
        """Account for a raw remote gate moving into a block."""
        pair_a, pair_b = self._gate_pairs[id(gate)]
        self._histogram[pair_a] -= 1
        self._histogram[pair_b] -= 1
        self._raw[id(gate)] -= 1
        self._raw_remaining -= 1

    def _is_remote_2q(self, gate: Gate) -> bool:
        return gate.is_two_qubit and self.mapping.is_remote(gate)

    # --------------------------------------------------------- per-pair sweep

    def _aggregate_pair(self, items: List[ScheduleItem], ids: List[int],
                        pair: Tuple[int, int]
                        ) -> Tuple[List[ScheduleItem], List[int]]:
        """One pass of ``pair``; returns the new items and their ids.

        Every raw gate of the pair opens or joins a block, so the pass
        leaves the pair with none.  ``ids[i] == id(items[i])`` lets the next
        raw gate be found by a C-level search from the end of the previous
        window; the items in between are copied as one slice.
        """
        self.stats["pair_passes"] += 1
        raw = self._raw
        out: List[ScheduleItem] = []
        out_ids: List[int] = []
        position = 0
        for gate in self._pair_gates.pop(pair):
            key = id(gate)
            if not raw[key]:
                continue  # already absorbed, here or by its other pair
            start = ids.index(key, position)
            out += items[position:start]
            out_ids += ids[position:start]
            position = self._window(items, ids, start, pair, out, out_ids)
        out += items[position:]
        out_ids += ids[position:]
        return out, out_ids

    def _window(self, items: List[ScheduleItem], ids: List[int], start: int,
                pair: Tuple[int, int], out: List[ScheduleItem],
                out_ids: List[int]) -> int:
        """Grow blocks for ``pair`` from the raw gate at ``items[start]``.

        Returns the position after the item that closed the last block (the
        end of the items when none did).
        """
        hub, remote_node = pair
        hub_node = self._node[hub]
        remote_qubits = self._qubits_on[remote_node]
        gate_pairs = self._gate_pairs
        use_commutation = self.use_commutation
        current: Optional[_OpenBlock] = None
        index = start
        end = len(items)
        while index < end:
            item = items[index]
            index += 1
            # Eligibility (a raw remote 2q gate of this exact pair) is one
            # precomputed lookup; gates already inside blocks are not items.
            eligible_pairs = gate_pairs.get(id(item))
            if eligible_pairs is not None and (pair == eligible_pairs[0]
                                               or pair == eligible_pairs[1]):
                # Pulling this gate into the open block hops it over every
                # deferred item, so that move must be commutation-justified.
                if current is not None and current.deferred and not (
                        use_commutation and current.commutes_with_deferred(item)):
                    current.close(out, out_ids)
                    current = None
                if current is None:
                    block = CommBlock(hub_qubit=hub, hub_node=hub_node,
                                      remote_node=remote_node)
                    out.append(block)
                    out_ids.append(id(block))
                    self._num_blocks += 1
                    current = _OpenBlock(block, self.stats)
                current.absorb(item)
                self._absorb_into_block(item)
                continue

            if self._allowed_in_block(item, hub, remote_qubits):
                # Absorbing keeps the gate at its original position relative
                # to the block; it only reorders against deferred items.
                if not current.deferred or (
                        use_commutation and current.commutes_with_deferred(item)):
                    current.absorb(item)
                    continue
                if use_commutation:
                    current.defer(item)
                    continue
            elif use_commutation and (
                    current.gates.qubits.isdisjoint(_item_qubits(item))
                    or current.commutes_with_block(item)) \
                    and current.commutes_with_deferred(item):
                current.defer(item)
                continue

            # The "break" case: the item closes the block and the window.
            current.close(out, out_ids)
            out.append(item)
            out_ids.append(ids[index - 1])
            self.stats["window_items"] += index - start
            return index
        current.close(out, out_ids)
        self.stats["window_items"] += index - start
        return index

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

    def _blockify_leftovers(self, items: List[ScheduleItem]) -> List[ScheduleItem]:
        """Wrap every remaining raw remote two-qubit gate in a singleton block."""
        out: List[ScheduleItem] = []
        gate_pairs = self._gate_pairs
        for item in items:
            if isinstance(item, Gate) and id(item) in gate_pairs:
                a, b = item.qubits
                block = CommBlock(hub_qubit=a, hub_node=self._node[a],
                                  remote_node=self._node[b])
                block.append(item)
                out.append(block)
            else:
                out.append(item)
        return out


def aggregate_communications(circuit: Circuit, mapping: QubitMapping,
                             use_commutation: bool = True,
                             max_sweeps: int = 3) -> AggregationResult:
    """Run the communication aggregation pass.

    Args:
        circuit: input circuit, ideally already decomposed to the CX basis.
        mapping: static qubit-to-node assignment.
        use_commutation: disable to reproduce the "no commutation" ablation of
            Figure 17(a) (blocks are then only formed from physically adjacent
            remote gates).
        max_sweeps: maximum number of refinement sweeps over all pairs.

    Under an active :mod:`repro.obs` tracer the pass runs inside an
    ``aggregation`` span with ``index``/``sweep``/``leftovers`` children.
    The span carries block/item counts, the work counters of
    :attr:`CommAggregator.stats` and the commutation oracle's cache
    activity for this pass (hit/miss deltas).
    """
    with stage("aggregation") as span:
        aggregator = CommAggregator(circuit, mapping,
                                    use_commutation=use_commutation,
                                    max_sweeps=max_sweeps)
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
