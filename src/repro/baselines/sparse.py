"""Sparse-communication baseline (Ferrari et al., the paper's main baseline).

Every remote CX gate is executed through its own Cat-Comm invocation (one
EPR pair per remote CX), and the program is scheduled with the plain greedy
as-soon-as-possible strategy.  No burst communication is exploited — this is
the "existing flow" of Figure 1 that AutoComm is measured against.
"""

from __future__ import annotations

from typing import List, Optional

from ..comm.blocks import CommBlock, CommScheme
from ..core.aggregation import ScheduleItem
from ..core.pipeline import CompiledProgram, compile_traced, static_form
from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from ..partition.mapping import QubitMapping

__all__ = ["compile_sparse"]


def _form(working: Circuit, network: QuantumNetwork, mapping: QubitMapping):
    """One Cat-Comm block per remote CX, as one static phase."""
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
    return static_form(working, network, mapping, items, blocks)


def compile_sparse(circuit: Circuit, network: QuantumNetwork,
                   mapping: Optional[QubitMapping] = None) -> CompiledProgram:
    """Compile with the sparse per-gate Cat-Comm baseline."""
    return compile_traced(circuit, network, mapping, _form,
                          compiler="sparse-cat", strategy="greedy")
