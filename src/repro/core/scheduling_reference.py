"""Reference (pre-optimization) plan construction for the scheduling pass.

Preserves the original commutation handling of :mod:`repro.core.scheduling`
exactly as it behaved before the hot-path overhaul: ``_items_commute``
checks the full |A| x |B| gate cross product for every query, nothing is
memoised across queries, chain/item qubit sets are rebuilt per comparison,
and plans are rebuilt from scratch on every request.  The resource-
constrained list scheduler itself is shared with the optimized pass (it was
never hot), so any divergence between the two paths is isolated to plan
construction.

Used by the equivalence tests and by ``benchmarks/bench_compiler_perf.py``
to measure the optimized pass against the true pre-optimization baseline.
Do not "optimize" this module: its slowness is the baseline being measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import heapq

from ..comm.blocks import CommBlock, CommScheme
from ..hardware.epr import CommResourceTracker
from ..hardware.network import QuantumNetwork
from ..ir.commutation_reference import commutes_reference as commutes
from ..ir.gates import Gate
from ..partition.mapping import QubitMapping
from .aggregation import ScheduleItem
from .assignment import AssignmentResult
from .aggregation_reference import _touched_qubits_scan
from .assignment_reference import _remote_gates, block_latency_reference
from .scheduling import (FusedTPChain, SchedulableItem, SchedulePlan,
                         ScheduledOp, ScheduleResult)

__all__ = ["plan_schedule_reference", "schedule_communications_reference"]


def _epr_prep_latency(network: QuantumNetwork, nodes: Sequence[int]) -> float:
    """Pre-optimization prep latency: the slowest pair of a node set's
    all-pairs closure, including pairs the teleport itinerary never links
    (the fused-chain bug :func:`~repro.core.scheduling.prep_latency_for_pairs`
    fixed).  On uniform (all-to-all) latencies the two agree."""
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


def _item_touched_scan(item: SchedulableItem) -> Tuple[int, ...]:
    """Scanning replica of the pre-optimization ``touched_qubits``."""
    if isinstance(item, CommBlock):
        return _touched_qubits_scan(item)
    qubits: Set[int] = set()
    for block in item.blocks:
        qubits.update(_touched_qubits_scan(block))
    return tuple(sorted(qubits))


def _item_qubits_reference(item: SchedulableItem,
                           num_qubits: int) -> Tuple[int, ...]:
    if isinstance(item, (CommBlock, FusedTPChain)):
        return _item_touched_scan(item)
    if item.is_barrier:
        return tuple(range(num_qubits))
    return item.qubits


def _items_commute_reference(a: SchedulableItem, b: SchedulableItem) -> bool:
    gates_a = a.gates if isinstance(a, (CommBlock, FusedTPChain)) else [a]
    gates_b = b.gates if isinstance(b, (CommBlock, FusedTPChain)) else [b]
    for ga in gates_a:
        for gb in gates_b:
            if not commutes(ga, gb):
                return False
    return True


def _fuse_tp_chains_reference(items: Sequence[ScheduleItem],
                              mapping: QubitMapping) -> List[SchedulableItem]:
    out: List[SchedulableItem] = []
    open_chain: List[CommBlock] = []

    def close() -> None:
        nonlocal open_chain
        if len(open_chain) >= 2:
            out.append(FusedTPChain(blocks=open_chain))
        elif open_chain:
            out.append(open_chain[0])
        open_chain = []

    for item in items:
        if isinstance(item, CommBlock) and item.scheme is CommScheme.TP:
            if open_chain and open_chain[-1].hub_qubit != item.hub_qubit:
                close()
            open_chain.append(item)
            continue
        if isinstance(item, Gate) and item.is_barrier:
            close()
            out.append(item)
            continue
        touched = (set(_touched_qubits_scan(item)) if isinstance(item, CommBlock)
                   else set(item.qubits))
        if open_chain:
            chain_qubits: Set[int] = set()
            for block in open_chain:
                chain_qubits.update(_touched_qubits_scan(block))
            if (open_chain[-1].hub_qubit in touched
                    or (touched & chain_qubits
                        and not all(_items_commute_reference(item, block)
                                    for block in open_chain))):
                close()
        out.append(item)
    close()
    return out


def _build_dependencies_reference(items: Sequence[SchedulableItem],
                                  num_qubits: int, commutation_aware: bool,
                                  lookback: int = 12) -> List[List[int]]:
    preds: List[List[int]] = [[] for _ in items]
    history: Dict[int, List[int]] = {q: [] for q in range(num_qubits)}
    for index, item in enumerate(items):
        qubits = _item_qubits_reference(item, num_qubits)
        chosen: Set[int] = set()
        for qubit in qubits:
            chain = history[qubit]
            if not chain:
                continue
            if not commutation_aware:
                chosen.add(chain[-1])
                continue
            both_blocks_possible = isinstance(item, (CommBlock, FusedTPChain))
            depends_on_someone = False
            for offset, prev_index in enumerate(reversed(chain)):
                if offset >= lookback:
                    chosen.add(prev_index)
                    depends_on_someone = True
                    break
                prev_item = items[prev_index]
                if (both_blocks_possible
                        and isinstance(prev_item, (CommBlock, FusedTPChain))
                        and _items_commute_reference(item, prev_item)):
                    continue
                chosen.add(prev_index)
                depends_on_someone = True
                break
            if not depends_on_someone:
                if len(chain) > lookback:
                    chosen.add(chain[-lookback - 1])
        preds[index] = sorted(chosen)
        for qubit in qubits:
            history[qubit].append(index)
    return preds


def plan_schedule_reference(assignment: AssignmentResult,
                            burst: bool) -> SchedulePlan:
    """Build a schedule plan through the original (unmemoised) path."""
    mapping = assignment.mapping
    num_qubits = assignment.aggregation.circuit.num_qubits
    items: List[SchedulableItem] = list(assignment.items)
    num_fused = 0
    if burst:
        fused = _fuse_tp_chains_reference(items, mapping)
        num_fused = sum(isinstance(i, FusedTPChain) for i in fused)
        items = fused
    preds = _build_dependencies_reference(items, num_qubits,
                                          commutation_aware=burst)
    return SchedulePlan(items=items, preds=preds, num_fused_chains=num_fused,
                        burst=burst, item_mappings=[mapping] * len(items),
                        item_phases=[0] * len(items))


def _run_schedule_reference(assignment: AssignmentResult,
                            network: QuantumNetwork,
                            burst: bool) -> ScheduleResult:
    latency = network.latency
    mapping = assignment.mapping

    plan = plan_schedule_reference(assignment, burst=burst)
    items = plan.items
    succs = plan.successors()
    indegree = [len(plist) for plist in plan.preds]

    resources = CommResourceTracker(network)
    ready_time = [0.0] * len(items)
    scheduled: List[Optional[ScheduledOp]] = [None] * len(items)

    heap: List[Tuple[float, int]] = []
    for index, degree in enumerate(indegree):
        if degree == 0:
            heapq.heappush(heap, (0.0, index))

    completed = 0
    while heap:
        ready, index = heapq.heappop(heap)
        item = items[index]
        op = _schedule_item_reference(item, index, ready, mapping, network,
                                      latency, resources)
        scheduled[index] = op
        completed += 1
        for succ in succs[index]:
            ready_time[succ] = max(ready_time[succ], op.end)
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (ready_time[succ], succ))

    if completed != len(items):  # pragma: no cover - defensive
        raise RuntimeError("dependency cycle in schedule construction")

    ops = [op for op in scheduled if op is not None]
    makespan = max((op.end for op in ops), default=0.0)
    num_comm = sum(1 for op in ops if op.kind != "gate")
    return ScheduleResult(ops=ops, latency=makespan, resources=resources,
                          num_comm_ops=num_comm,
                          num_fused_chains=plan.num_fused_chains,
                          mode=plan.mode)


def _schedule_item_reference(item: SchedulableItem, index: int, ready: float,
                             mapping: QubitMapping, network: QuantumNetwork,
                             latency, resources: CommResourceTracker
                             ) -> ScheduledOp:
    if isinstance(item, Gate):
        duration = latency.gate_latency(item)
        return ScheduledOp(index=index, kind="gate", start=ready,
                           end=ready + duration)

    if isinstance(item, FusedTPChain):
        duration = item.duration(mapping, latency)
        nodes = item.nodes()
        start = _reserve_comm(resources, nodes, ready, duration,
                              _epr_prep_latency(network, nodes),
                              label=f"tp-chain-{index}")
        return ScheduledOp(index=index, kind="tp-chain", start=start,
                           end=start + duration, nodes=nodes,
                           num_remote_gates=sum(
                               len(_remote_gates(b, mapping))
                               for b in item.blocks),
                           num_items=len(item.blocks))

    duration = block_latency_reference(item, mapping, latency)
    nodes = item.nodes
    kind = "tp" if item.scheme is CommScheme.TP else "cat"
    start = _reserve_comm(resources, nodes, ready, duration,
                          _epr_prep_latency(network, nodes),
                          label=f"{kind}-{index}")
    return ScheduledOp(index=index, kind=kind, start=start,
                       end=start + duration, nodes=nodes,
                       num_remote_gates=len(_remote_gates(item, mapping)))


def schedule_communications_reference(assignment: AssignmentResult,
                                      network: QuantumNetwork,
                                      strategy: str = "burst-greedy"
                                      ) -> ScheduleResult:
    """Schedule through the reference plan builder (original behaviour)."""
    if strategy not in ("burst-greedy", "greedy"):
        raise ValueError(f"unknown scheduling strategy {strategy!r}")
    if strategy == "burst-greedy":
        burst_result = _run_schedule_reference(assignment, network, burst=True)
        plain_result = _run_schedule_reference(assignment, network, burst=False)
        return (burst_result if burst_result.latency <= plain_result.latency
                else plain_result)
    return _run_schedule_reference(assignment, network, burst=False)
