"""GP-TP baseline: graph-partition compiler with TP-Comm remote swaps.

This models the comparison target of Section 5.3 (Baker et al.'s
time-sliced, graph-partition-based compiler, upgraded to use TP-Comm for
qubit movement as the paper does).  Remote interactions are made local by
*moving* qubits between nodes: whenever a two-qubit gate spans two nodes,
one of its qubits is exchanged with a qubit on the other node via a remote
SWAP, which costs two communications under TP-Comm.  The choice of which
qubit to move, and which resident qubit to displace, uses a short
look-ahead over upcoming gates, mirroring the time-slice locality the
original compiler derives from graph partitioning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..comm.blocks import CommBlock, CommScheme
from ..comm.cost import total_comm_count
from ..core.aggregation import AggregationResult, ScheduleItem
from ..core.assignment import AssignmentResult
from ..core.metrics import CompilationMetrics
from ..core.pipeline import CompiledProgram
from ..core.scheduling import schedule_communications
from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from ..ir.decompose import decompose_to_cx
from ..ir.gates import Gate
from ..partition.mapping import QubitMapping
from ..partition.oee import oee_partition

__all__ = ["GPTPCompiler", "compile_gp_tp"]


class GPTPCompiler:
    """Qubit-movement compiler using TP-Comm remote swaps."""

    name = "gp-tp"

    def __init__(self, lookahead: int = 20) -> None:
        self.lookahead = lookahead

    # ------------------------------------------------------------------ public

    def compile(self, circuit: Circuit, network: QuantumNetwork,
                mapping: Optional[QubitMapping] = None) -> CompiledProgram:
        network.validate_capacity(circuit.num_qubits)
        working = decompose_to_cx(circuit)
        if mapping is None:
            mapping = oee_partition(working, network).mapping

        location: Dict[int, int] = mapping.as_dict()
        gates = list(working.gates)

        items: List[ScheduleItem] = []
        blocks: List[CommBlock] = []
        num_swaps = 0

        for index, gate in enumerate(gates):
            if gate.is_two_qubit:
                qubit_a, qubit_b = gate.qubits
                if location[qubit_a] != location[qubit_b]:
                    moved, displaced = self._plan_move(gates, index, location,
                                                       qubit_a, qubit_b)
                    block = self._swap_block(moved, displaced, location)
                    location[moved], location[displaced] = (
                        location[displaced], location[moved])
                    blocks.append(block)
                    items.append(block)
                    num_swaps += 1
            items.append(gate)

        aggregation = AggregationResult(working, mapping, items, blocks)
        cost = total_comm_count(blocks, mapping, network=network)
        assignment = AssignmentResult(aggregation=aggregation, blocks=blocks,
                                      cost=cost)
        schedule = schedule_communications(assignment, network, strategy="greedy")

        peak = 1.5 if num_swaps else 0.0  # 3 CX worth of state motion per 2 comms
        metrics = CompilationMetrics(
            name=circuit.name,
            total_comm=2 * num_swaps,
            tp_comm=2 * num_swaps,
            cat_comm=0,
            peak_rem_cx=peak,
            latency=schedule.latency,
            num_blocks=len(blocks),
            num_remote_gates=mapping.count_remote_gates(working),
            total_epr_pairs=cost.total_epr_pairs,
            total_epr_latency=cost.total_epr_latency,
        )
        return CompiledProgram(
            name=circuit.name,
            compiler=self.name,
            circuit=working,
            mapping=mapping,
            network=network,
            blocks=blocks,
            metrics=metrics,
            aggregation=aggregation,
            assignment=assignment,
            schedule=schedule,
        )

    # --------------------------------------------------------------- movement

    def _plan_move(self, gates: List[Gate], index: int, location: Dict[int, int],
                   qubit_a: int, qubit_b: int) -> Tuple[int, int]:
        """Decide which qubit to move and which resident qubit it displaces."""
        affinity_a = self._affinity(gates, index, location, qubit_a)
        affinity_b = self._affinity(gates, index, location, qubit_b)
        # Move the qubit that is *less* attached to its current node; break
        # ties by moving the first operand.
        if affinity_b < affinity_a:
            moved, destination_anchor = qubit_b, qubit_a
        else:
            moved, destination_anchor = qubit_a, qubit_b
        target_node = location[destination_anchor]
        displaced = self._pick_displaced(gates, index, location, target_node,
                                         keep=destination_anchor)
        return moved, displaced

    def _affinity(self, gates: List[Gate], index: int, location: Dict[int, int],
                  qubit: int) -> int:
        """Upcoming interactions of ``qubit`` with qubits on its current node."""
        node = location[qubit]
        count = 0
        seen = 0
        for gate in gates[index + 1:]:
            if not gate.is_two_qubit:
                continue
            seen += 1
            if seen > self.lookahead:
                break
            if qubit in gate.qubits:
                other = gate.qubits[0] if gate.qubits[1] == qubit else gate.qubits[1]
                if location[other] == node:
                    count += 1
        return count

    def _pick_displaced(self, gates: List[Gate], index: int,
                        location: Dict[int, int], target_node: int,
                        keep: int) -> int:
        """Choose the resident of ``target_node`` that the moved qubit replaces."""
        residents = [q for q, n in location.items()
                     if n == target_node and q != keep]
        if not residents:
            raise ValueError(f"node {target_node} has no displaceable qubit")
        best = residents[0]
        best_affinity = None
        for qubit in residents:
            affinity = self._affinity(gates, index, location, qubit)
            if best_affinity is None or affinity < best_affinity:
                best, best_affinity = qubit, affinity
        return best

    def _swap_block(self, moved: int, displaced: int,
                    location: Dict[int, int]) -> CommBlock:
        """Represent one remote SWAP (3 CX of state motion, 2 TP communications)."""
        block = CommBlock(hub_qubit=moved,
                          hub_node=location[moved],
                          remote_node=location[displaced])
        block.extend([
            Gate("cx", (moved, displaced)),
            Gate("cx", (displaced, moved)),
            Gate("cx", (moved, displaced)),
        ])
        block.scheme = CommScheme.TP
        return block


def compile_gp_tp(circuit: Circuit, network: QuantumNetwork,
                  mapping: Optional[QubitMapping] = None,
                  lookahead: int = 20) -> CompiledProgram:
    """Compile with the GP-TP qubit-movement baseline."""
    return GPTPCompiler(lookahead=lookahead).compile(circuit, network, mapping)
