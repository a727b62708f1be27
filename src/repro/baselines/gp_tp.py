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

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..comm.blocks import CommBlock, CommScheme
from ..core.aggregation import ScheduleItem
from ..core.pipeline import CompiledProgram, compile_traced, static_form
from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from ..ir.gates import Gate
from ..partition.mapping import QubitMapping

__all__ = ["compile_gp_tp"]


def compile_gp_tp(circuit: Circuit, network: QuantumNetwork,
                  mapping: Optional[QubitMapping] = None,
                  lookahead: int = 20) -> CompiledProgram:
    """Compile with the GP-TP qubit-movement baseline."""
    program = compile_traced(circuit, network, mapping,
                             partial(_form, lookahead=lookahead),
                             compiler="gp-tp", strategy="greedy")
    # GP-TP's peak convention: a swap moves 3 CX worth of state over its
    # 2 comms, whatever the remote gates it makes local.
    program.metrics = replace(program.metrics,
                              peak_rem_cx=1.5 if program.blocks else 0.0)
    return program


def _form(working: Circuit, network: QuantumNetwork, mapping: QubitMapping,
          lookahead: int):
    """One remote-swap TP block per remote CX met, as one static phase."""
    location: Dict[int, int] = mapping.as_dict()
    gates = list(working.gates)
    items: List[ScheduleItem] = []
    blocks: List[CommBlock] = []
    for index, gate in enumerate(gates):
        if gate.is_two_qubit:
            qubit_a, qubit_b = gate.qubits
            if location[qubit_a] != location[qubit_b]:
                moved, displaced = _plan_move(gates, index, location,
                                              qubit_a, qubit_b, lookahead)
                block = _swap_block(moved, displaced, location)
                location[moved], location[displaced] = (
                    location[displaced], location[moved])
                blocks.append(block)
                items.append(block)
        items.append(gate)
    return static_form(working, network, mapping, items, blocks)


def _plan_move(gates: List[Gate], index: int, location: Dict[int, int],
               qubit_a: int, qubit_b: int, lookahead: int) -> Tuple[int, int]:
    """Decide which qubit to move and which resident qubit it displaces."""
    affinity_a = _affinity(gates, index, location, qubit_a, lookahead)
    affinity_b = _affinity(gates, index, location, qubit_b, lookahead)
    # Move the qubit that is *less* attached to its current node; break
    # ties by moving the first operand.
    if affinity_b < affinity_a:
        moved, destination_anchor = qubit_b, qubit_a
    else:
        moved, destination_anchor = qubit_a, qubit_b
    target_node = location[destination_anchor]
    displaced = _pick_displaced(gates, index, location, target_node,
                                destination_anchor, lookahead)
    return moved, displaced


def _affinity(gates: List[Gate], index: int, location: Dict[int, int],
              qubit: int, lookahead: int) -> int:
    """Upcoming interactions of ``qubit`` with qubits on its current node."""
    node = location[qubit]
    count = 0
    seen = 0
    for gate in gates[index + 1:]:
        if not gate.is_two_qubit:
            continue
        seen += 1
        if seen > lookahead:
            break
        if qubit in gate.qubits:
            other = gate.qubits[0] if gate.qubits[1] == qubit else gate.qubits[1]
            if location[other] == node:
                count += 1
    return count


def _pick_displaced(gates: List[Gate], index: int, location: Dict[int, int],
                    target_node: int, keep: int, lookahead: int) -> int:
    """Choose the resident of ``target_node`` that the moved qubit replaces."""
    residents = [q for q, n in location.items()
                 if n == target_node and q != keep]
    if not residents:
        raise ValueError(f"node {target_node} has no displaceable qubit")
    best = residents[0]
    best_affinity = None
    for qubit in residents:
        affinity = _affinity(gates, index, location, qubit, lookahead)
        if best_affinity is None or affinity < best_affinity:
            best, best_affinity = qubit, affinity
    return best


def _swap_block(moved: int, displaced: int,
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
