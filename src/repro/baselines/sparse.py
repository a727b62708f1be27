"""Sparse-communication baseline (Ferrari et al., the paper's main baseline).

Every remote CX gate is executed through its own Cat-Comm invocation (one
EPR pair per remote CX), and the program is scheduled with the plain greedy
as-soon-as-possible strategy.  No burst communication is exploited — this is
the "existing flow" of Figure 1 that AutoComm is measured against.
"""

from __future__ import annotations

from typing import List, Optional

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
from ..partition.mapping import QubitMapping
from ..partition.oee import oee_partition

__all__ = ["SparseCompiler", "compile_sparse"]


class SparseCompiler:
    """Per-gate Cat-Comm compiler with ASAP scheduling."""

    name = "sparse-cat"

    def compile(self, circuit: Circuit, network: QuantumNetwork,
                mapping: Optional[QubitMapping] = None) -> CompiledProgram:
        network.validate_capacity(circuit.num_qubits)
        working = decompose_to_cx(circuit)
        if mapping is None:
            mapping = oee_partition(working, network).mapping

        items: List[ScheduleItem] = []
        blocks: List[CommBlock] = []
        for gate in working:
            if gate.is_two_qubit and mapping.is_remote(gate):
                a, b = gate.qubits
                block = CommBlock(hub_qubit=a, hub_node=mapping.node_of(a),
                                  remote_node=mapping.node_of(b))
                block.append(gate)
                block.scheme = CommScheme.CAT
                blocks.append(block)
                items.append(block)
            else:
                items.append(gate)

        aggregation = AggregationResult(working, mapping, items, blocks)
        cost = total_comm_count(blocks, mapping, network=network)
        assignment = AssignmentResult(aggregation=aggregation, blocks=blocks,
                                      cost=cost)
        schedule = schedule_communications(assignment, network, strategy="greedy")

        metrics = CompilationMetrics(
            name=circuit.name,
            total_comm=cost.total_comm,
            tp_comm=cost.tp_comm,
            cat_comm=cost.cat_comm,
            peak_rem_cx=cost.peak_remote_cx,
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


def compile_sparse(circuit: Circuit, network: QuantumNetwork,
                   mapping: Optional[QubitMapping] = None) -> CompiledProgram:
    """Compile with the sparse per-gate Cat-Comm baseline."""
    return SparseCompiler().compile(circuit, network, mapping)
