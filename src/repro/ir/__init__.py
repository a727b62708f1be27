"""Quantum circuit intermediate representation.

This subpackage provides the circuit substrate the AutoComm passes operate
on: gates, circuits, CX-basis decomposition, commutation analysis, a small
statevector simulator (for verification) and OpenQASM 2.0 serialisation.
"""

from .gates import Gate, GateSpec, gate_spec, standard_gate_names
from .circuit import Circuit
from .decompose import decompose_to_cx, decompose_gate, mct_v_chain
from .commutation import (
    clear_commutation_cache,
    commutation_cache_stats,
    commutes,
)
from .qasm import to_qasm, from_qasm
from . import simulator

__all__ = [
    "Gate",
    "GateSpec",
    "gate_spec",
    "standard_gate_names",
    "Circuit",
    "decompose_to_cx",
    "decompose_gate",
    "mct_v_chain",
    "commutes",
    "clear_commutation_cache",
    "commutation_cache_stats",
    "to_qasm",
    "from_qasm",
    "simulator",
]
