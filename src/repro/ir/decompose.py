"""Decomposition of multi-qubit gates into the CX + single-qubit basis.

AutoComm's burst analysis is defined over circuits "compiled to the CX+U3
basis" (Section 3.2 of the paper), so every benchmark circuit is first pushed
through :func:`decompose_to_cx`.  The decompositions used here are the
textbook ones (Nielsen & Chuang / Qiskit equivalents); each is covered by a
unitary-equivalence test in ``tests/ir/test_decompose.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from .circuit import Circuit
from .gates import Gate

__all__ = ["decompose_to_cx", "decompose_gate", "mct_v_chain", "CX_BASIS"]

#: Gate names that survive decomposition untouched.
CX_BASIS = frozenset({
    "cx", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
    "rx", "ry", "rz", "p", "u3", "id", "measure", "reset", "barrier",
})


def decompose_to_cx(circuit: Circuit) -> Circuit:
    """Return an equivalent circuit using only CX and single-qubit gates.

    The input's gates were validated against a circuit of the same width
    when they were built, and every handler derives its gates from one of
    them (same qubits, float angles), so the output is assembled through
    the trusted constructor and append.
    """
    out = Circuit(circuit.num_qubits, name=circuit.name)
    out.extend_trusted([sub for gate in circuit
                        for sub in decompose_gate(gate)])
    return out


def decompose_gate(gate: Gate) -> List[Gate]:
    """Decompose a single gate into the CX + single-qubit basis."""
    if gate.name in CX_BASIS:
        return [gate]
    handler = _HANDLERS.get(gate.name)
    if handler is None:
        raise ValueError(f"no CX-basis decomposition registered for {gate.name!r}")
    return handler(gate)


# ---------------------------------------------------------------------------
# Individual decompositions
# ---------------------------------------------------------------------------

#: Handlers build their gates from a validated input gate's qubits and
#: angles, so they skip :class:`Gate`'s per-field validation.
_gate = Gate.from_trusted


def _cz(gate: Gate) -> List[Gate]:
    c, t = gate.qubits
    return [_gate("h", (t,)), _gate("cx", (c, t)), _gate("h", (t,))]


def _cy(gate: Gate) -> List[Gate]:
    c, t = gate.qubits
    return [_gate("sdg", (t,)), _gate("cx", (c, t)), _gate("s", (t,))]


def _ch(gate: Gate) -> List[Gate]:
    # Standard CH decomposition (up to global phase exact):
    # CH = (I ⊗ Ry(pi/4)) CX (I ⊗ Ry(-pi/4)) with an extra S/T structure;
    # we use the exact ABC construction for controlled-U with U = H.
    c, t = gate.qubits
    return [
        _gate("s", (t,)),
        _gate("h", (t,)),
        _gate("t", (t,)),
        _gate("cx", (c, t)),
        _gate("tdg", (t,)),
        _gate("h", (t,)),
        _gate("sdg", (t,)),
    ]


def _crz(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _gate("rz", (t,), (theta / 2,)),
        _gate("cx", (c, t)),
        _gate("rz", (t,), (-theta / 2,)),
        _gate("cx", (c, t)),
    ]


def _cp(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _gate("p", (c,), (theta / 2,)),
        _gate("p", (t,), (theta / 2,)),
        _gate("cx", (c, t)),
        _gate("p", (t,), (-theta / 2,)),
        _gate("cx", (c, t)),
    ]


def _crx(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _gate("h", (t,)),
        _gate("rz", (t,), (theta / 2,)),
        _gate("cx", (c, t)),
        _gate("rz", (t,), (-theta / 2,)),
        _gate("cx", (c, t)),
        _gate("h", (t,)),
    ]


def _cry(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _gate("ry", (t,), (theta / 2,)),
        _gate("cx", (c, t)),
        _gate("ry", (t,), (-theta / 2,)),
        _gate("cx", (c, t)),
    ]


def _swap(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [_gate("cx", (a, b)), _gate("cx", (b, a)), _gate("cx", (a, b))]


def _rzz(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    a, b = gate.qubits
    return [
        _gate("cx", (a, b)),
        _gate("rz", (b,), (theta,)),
        _gate("cx", (a, b)),
    ]


def _rxx(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    a, b = gate.qubits
    return [
        _gate("h", (a,)),
        _gate("h", (b,)),
        _gate("cx", (a, b)),
        _gate("rz", (b,), (theta,)),
        _gate("cx", (a, b)),
        _gate("h", (a,)),
        _gate("h", (b,)),
    ]


def _ccx(gate: Gate) -> List[Gate]:
    """Standard 6-CX Toffoli decomposition."""
    a, b, c = gate.qubits
    return [
        _gate("h", (c,)),
        _gate("cx", (b, c)),
        _gate("tdg", (c,)),
        _gate("cx", (a, c)),
        _gate("t", (c,)),
        _gate("cx", (b, c)),
        _gate("tdg", (c,)),
        _gate("cx", (a, c)),
        _gate("t", (b,)),
        _gate("t", (c,)),
        _gate("h", (c,)),
        _gate("cx", (a, b)),
        _gate("t", (a,)),
        _gate("tdg", (b,)),
        _gate("cx", (a, b)),
    ]


def _ccz(gate: Gate) -> List[Gate]:
    a, b, c = gate.qubits
    return [_gate("h", (c,))] + _ccx(_gate("ccx", (a, b, c))) + [_gate("h", (c,))]


def _cswap(gate: Gate) -> List[Gate]:
    c, a, b = gate.qubits
    out = [_gate("cx", (b, a))]
    out.extend(_ccx(_gate("ccx", (c, a, b))))
    out.append(_gate("cx", (b, a)))
    return out


_HANDLERS: Dict[str, Callable[[Gate], List[Gate]]] = {
    "cz": _cz,
    "cy": _cy,
    "ch": _ch,
    "crz": _crz,
    "cp": _cp,
    "crx": _crx,
    "cry": _cry,
    "swap": _swap,
    "rzz": _rzz,
    "rxx": _rxx,
    "ccx": _ccx,
    "ccz": _ccz,
    "cswap": _cswap,
}


# ---------------------------------------------------------------------------
# Multi-controlled Toffoli construction (used by the MCTR benchmark)
# ---------------------------------------------------------------------------

def mct_v_chain(controls: Sequence[int], target: int,
                ancillas: Sequence[int]) -> Circuit:
    """Build an n-controlled X via the V-chain of Toffoli gates.

    Requires ``len(ancillas) >= len(controls) - 2`` clean ancilla qubits.  The
    construction computes the AND of the controls into the ancilla chain,
    applies a final Toffoli onto the target and uncomputes the chain, which is
    the standard linear-depth MCT used in compiler toolchains.

    The returned circuit is expressed in ``ccx``/``cx`` gates (not yet pushed
    to the CX basis) and spans ``max(all indices) + 1`` qubits.
    """
    controls = list(controls)
    ancillas = list(ancillas)
    n = len(controls)
    if n == 0:
        raise ValueError("need at least one control")
    num_qubits = max([target] + controls + ancillas) + 1
    circuit = Circuit(num_qubits, name="mct")
    if n == 1:
        circuit.cx(controls[0], target)
        return circuit
    if n == 2:
        circuit.ccx(controls[0], controls[1], target)
        return circuit
    if len(ancillas) < n - 2:
        raise ValueError(f"V-chain MCT with {n} controls needs {n - 2} ancillas, "
                         f"got {len(ancillas)}")

    # Compute chain
    circuit.ccx(controls[0], controls[1], ancillas[0])
    for i in range(2, n - 1):
        circuit.ccx(controls[i], ancillas[i - 2], ancillas[i - 1])
    # Apply
    circuit.ccx(controls[n - 1], ancillas[n - 3], target)
    # Uncompute chain
    for i in reversed(range(2, n - 1)):
        circuit.ccx(controls[i], ancillas[i - 2], ancillas[i - 1])
    circuit.ccx(controls[0], controls[1], ancillas[0])
    return circuit
