"""Reference (pre-optimization) commutation engine.

Preserves the original behaviour *and cost profile* of
:func:`repro.ir.commutation.commutes` before the hot-path overhaul: qubit
sets are rebuilt per query, every structural property walks the gate
registry (as the original ``Gate`` properties did), and only the matrix
fallback is memoised.  The reference compiler passes in
``repro.core.aggregation_reference`` and ``repro.core.scheduling_reference``
route their commutation queries through this module so that
``benchmarks/bench_compiler_perf.py`` measures the optimized engine against
the true pre-optimization baseline.

Do not "optimize" this module: its slowness is the baseline being measured.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from .commutation import _matrix_key, _matrix_verdict
from .gates import Gate, gate_spec

__all__ = ["commutes_reference", "matrix_commutes_reference"]

_matrix_verdict_memo = lru_cache(maxsize=200_000)(_matrix_verdict)


def matrix_commutes_reference(gate_a: Gate, gate_b: Gate) -> bool:
    """The exact matrix check, memoised per structural pair pattern."""
    return _matrix_verdict_memo(_matrix_key(gate_a, gate_b))

# The hand-written rule tables live only here: the optimized engine decides
# by the Pauli-axis rule, so the agreement tests check these rules against it.

# Single-qubit gates that commute with being the *control* of a CX/CZ/CRZ/CP
# (i.e. diagonal gates) and with being the *target* of a CX (X-axis gates).
_Z_AXIS = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "p", "id"})
_X_AXIS = frozenset({"x", "sx", "sxdg", "rx", "id"})

# Two-qubit controlled gates, and which of their qubits is control/target.
_CONTROLLED_2Q = frozenset({"cx", "cz", "cy", "ch", "crz", "crx", "cry", "cp"})
# Diagonal two-qubit gates: commute with any Z-axis single-qubit gate on
# either operand and with each other.
_DIAGONAL_2Q = frozenset({"cz", "crz", "cp", "rzz"})


# Registry-walking property replicas: the pre-optimization Gate resolved
# every structural query through gate_spec(), so the reference engine must
# pay the same lookups instead of reading the cached attributes.

def _is_unitary(gate: Gate) -> bool:
    return gate_spec(gate.name).unitary is not None


def _is_single_qubit(gate: Gate) -> bool:
    return _is_unitary(gate) and len(gate.qubits) == 1


def _is_two_qubit(gate: Gate) -> bool:
    return _is_unitary(gate) and len(gate.qubits) == 2


def _is_multi_qubit(gate: Gate) -> bool:
    return _is_unitary(gate) and len(gate.qubits) >= 2


def _is_diagonal(gate: Gate) -> bool:
    return gate_spec(gate.name).diagonal


def _axis(gate: Gate) -> Optional[str]:
    return gate_spec(gate.name).axis


def commutes_reference(gate_a: Gate, gate_b: Gate) -> bool:
    """Original (uncached rule path) implementation of ``commutes``."""
    shared = set(gate_a.qubits) & set(gate_b.qubits)
    if not shared:
        return True
    if not _is_unitary(gate_a) or not _is_unitary(gate_b):
        return False

    rule = _rule_based(gate_a, gate_b, shared)
    if rule is not None:
        return rule
    return matrix_commutes_reference(gate_a, gate_b)


def _rule_based(a: Gate, b: Gate, shared: set) -> Optional[bool]:
    if a.name == "id" or b.name == "id":
        return True
    if _is_diagonal(a) and _is_diagonal(b):
        return True
    if _is_single_qubit(a) and _is_single_qubit(b):
        return _single_single(a, b)
    if _is_single_qubit(a) and _is_multi_qubit(b):
        return _single_multi(a, b)
    if _is_single_qubit(b) and _is_multi_qubit(a):
        return _single_multi(b, a)
    if _is_two_qubit(a) and _is_two_qubit(b):
        return _two_two(a, b, shared)
    return None


def _single_single(a: Gate, b: Gate) -> Optional[bool]:
    axis_a, axis_b = _axis(a), _axis(b)
    if axis_a is not None and axis_a == axis_b:
        return True
    return None


def _single_multi(single: Gate, multi: Gate) -> Optional[bool]:
    q = single.qubits[0]
    if multi.name in _CONTROLLED_2Q or multi.name in ("ccx", "ccz", "cswap"):
        controls, targets = _controls_targets(multi)
        if q in controls:
            if single.name in _Z_AXIS:
                return True
            return None
        if q in targets:
            if multi.name in ("cx", "ccx") and single.name in _X_AXIS:
                return True
            if multi.name in ("cz", "crz", "cp", "ccz") and single.name in _Z_AXIS:
                return True
            return None
    if multi.name == "rzz" and single.name in _Z_AXIS:
        return True
    if multi.name == "rxx" and single.name in _X_AXIS:
        return True
    return None


def _controls_targets(gate: Gate) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    if gate.name in _CONTROLLED_2Q:
        return (gate.qubits[0],), (gate.qubits[1],)
    if gate.name in ("ccx", "ccz"):
        return gate.qubits[:2], gate.qubits[2:]
    if gate.name == "cswap":
        return gate.qubits[:1], gate.qubits[1:]
    return (), gate.qubits


def _two_two(a: Gate, b: Gate, shared: set) -> Optional[bool]:
    if a.name in _DIAGONAL_2Q and b.name in _DIAGONAL_2Q:
        return True
    if a.name == "cx" and b.name == "cx":
        if a.qubits == b.qubits:
            return True
        if a.qubits[0] == b.qubits[0] and a.qubits[1] != b.qubits[1]:
            return True
        if a.qubits[1] == b.qubits[1] and a.qubits[0] != b.qubits[0]:
            return True
        return False
    if {a.name, b.name} <= (_CONTROLLED_2Q | {"rzz"}):
        diag, other = (a, b) if a.name in _DIAGONAL_2Q else (b, a)
        if diag.name in _DIAGONAL_2Q and other.name in _CONTROLLED_2Q:
            controls, _ = _controls_targets(other)
            if shared <= set(controls):
                return True
            if other.name in _DIAGONAL_2Q:
                return True
            return None
    return None
