"""Quantum circuit intermediate representation.

This subpackage provides the circuit substrate the AutoComm passes operate
on: gates, circuits, a dependency DAG, CX-basis decomposition, commutation
analysis, a small statevector simulator (for verification) and OpenQASM 2.0
serialisation.
"""

from .gates import Gate, GateSpec, gate_spec, standard_gate_names
from .circuit import Circuit
from .dag import CircuitDAG
from .decompose import decompose_to_cx, decompose_gate, mct_v_chain
from .commutation import (
    clear_commutation_cache,
    commutation_cache_stats,
    commutes,
    commutes_with_all,
    commutes_through,
)
from .qasm import to_qasm, from_qasm
from .transpile import (
    cancel_adjacent_inverses,
    merge_rotations,
    drop_identities,
    optimize_circuit,
)
from . import simulator

__all__ = [
    "Gate",
    "GateSpec",
    "gate_spec",
    "standard_gate_names",
    "Circuit",
    "CircuitDAG",
    "decompose_to_cx",
    "decompose_gate",
    "mct_v_chain",
    "commutes",
    "commutes_with_all",
    "commutes_through",
    "clear_commutation_cache",
    "commutation_cache_stats",
    "to_qasm",
    "from_qasm",
    "cancel_adjacent_inverses",
    "merge_rotations",
    "drop_identities",
    "optimize_circuit",
    "simulator",
]
