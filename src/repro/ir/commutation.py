"""Gate commutation analysis.

AutoComm's aggregation pass reorders gates to expose burst communication, so
it needs a reliable answer to "do these two gates commute?".  One exact rule
and one exact check answer it:

* the Pauli-axis rule (:func:`pauli_axes`): two unitary gates that commute
  with the same Pauli on every qubit they share commute with each other.
  The X-rotation-centred rules of Figure 7 in the paper, the control/target
  rules and the diagonal-pair rules are all instances of it;
* an exact matrix check on the joint unitary decides every other pair.

The matrix verdicts are memoised on a canonical ``(name, params, name,
params, overlap)`` key, so repeated queries over large circuits (the
aggregation and scheduling passes ask the same structural question for
thousands of concrete gate pairs) collapse to one dict lookup.  The cache is
always on: it changes how fast an answer comes, never the answer, which the
tests check against the uncached copy in
:mod:`repro.ir.commutation_reference`.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional, Tuple

import numpy as np

from .gates import GATE_REGISTRY, Gate, gate_spec

__all__ = [
    "GateFrontier",
    "pauli_axes",
    "commutes",
    "clear_commutation_cache",
    "commutation_cache_stats",
]

_ATOL = 1e-9

# Pair-level memo of the matrix verdicts, on the overlap key built by
# commutes().  Bounded defensively; a full clear on overflow is simpler than
# LRU eviction and the bound is far above what any benchmark circuit
# generates.
_PAIR_CACHE: Dict[tuple, bool] = {}
_PAIR_CACHE_MAX = 1 << 20
_STATS = {"hits": 0, "misses": 0}

# Per-position Pauli axis each non-diagonal multi-qubit gate commutes with
# (see pauli_axes): controls with Z, CX/CCX/CRX/RXX targets with X, CY/CRY
# targets with Y.
_MULTI_AXES: Dict[str, Tuple[Optional[str], ...]] = {
    "cx": ("z", "x"), "cy": ("z", "y"), "ch": ("z", None),
    "crx": ("z", "x"), "cry": ("z", "y"), "rxx": ("x", "x"),
    "ccx": ("z", "z", "x"), "cswap": ("z", None, None),
}
_AXES: Dict[str, Tuple[Optional[str], ...]] = {
    name: (("z",) * spec.num_qubits if spec.diagonal
           else (spec.axis,) if spec.num_qubits == 1
           else _MULTI_AXES.get(name, (None,) * spec.num_qubits))
    for name, spec in GATE_REGISTRY.items() if spec.unitary is not None}


def clear_commutation_cache() -> None:
    """Clear the memoised commutation verdicts and their statistics."""
    _PAIR_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


def commutation_cache_stats() -> Dict[str, int]:
    """Hit/miss statistics of the pair-level commutation cache.

    ``hits``/``misses`` count lookups of the pair-level cache (each miss
    runs the matrix check) and ``size`` is the number of memoised pair
    patterns.
    """
    return {**_STATS, "size": len(_PAIR_CACHE)}


def commutes(gate_a: Gate, gate_b: Gate) -> bool:
    """Return True when ``gate_a`` and ``gate_b`` commute.

    Barriers, measurements and resets are treated as commuting with nothing
    that shares a qubit with them (conservative).

    Gates on disjoint qubits commute.  Otherwise one pass over ``gate_a``'s
    qubits finds whether the pair is axis-matched (same :func:`pauli_axes`
    entry on every shared qubit), which commutes exactly, and builds the
    overlap key ``(name_a, params_a, name_b, params_b, positions)``, where
    ``positions[i]`` is ``gate_b``'s position of ``gate_a``'s i-th qubit
    (-1 when not shared).  Every other pair is decided by the exact matrix
    check, memoised on that key.
    """
    qubits_b = gate_b._qubit_set
    if gate_a._qubit_set.isdisjoint(qubits_b):
        return True
    if not gate_a._is_unitary or not gate_b._is_unitary:
        return False

    axes_a = _AXES[gate_a.name]
    axes_b = _AXES[gate_b.name]
    order_b = gate_b.qubits
    matched = True
    positions = []
    for i, qubit in enumerate(gate_a.qubits):
        if qubit in qubits_b:
            j = order_b.index(qubit)
            positions.append(j)
            if axes_a[i] is None or axes_a[i] != axes_b[j]:
                matched = False
        else:
            positions.append(-1)
    if matched:
        return True

    key = (gate_a.name, gate_a.params, gate_b.name, gate_b.params,
           tuple(positions))
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1
    result = _matrix_commutes(gate_a, gate_b)
    if len(_PAIR_CACHE) >= _PAIR_CACHE_MAX:  # pragma: no cover - defensive
        _PAIR_CACHE.clear()
    _PAIR_CACHE[key] = result
    return result


def pauli_axes(gate: Gate) -> Tuple[Optional[str], ...]:
    """Per qubit of ``gate``, the Pauli axis its action there commutes with.

    ``"z"`` for diagonal gates and controls, ``"x"``/``"y"`` for X/Y
    rotations and the targets of X/Y-type controlled gates, ``None`` when
    no single Pauli fits (or the gate is not unitary).  Two unitary gates
    that commute with the same Pauli on every qubit they share are block
    diagonal in one product basis of those qubits, so they commute exactly.
    """
    axes = _AXES.get(gate.name)
    return axes if axes is not None else (None,) * len(gate.qubits)


class GateFrontier:
    """Gates indexed per qubit, for "does this gate commute with all of them?".

    Each gate is filed, for every qubit it acts on, under its
    :func:`pauli_axes` entry there.  A query skips the gates filed under its
    own axis on a shared qubit: a pair matching on every shared qubit
    commutes exactly, and :func:`commutes` accepts every exactly commuting
    pair.  In the other buckets, gates :func:`commutes` cannot tell apart
    are asked about once: single-qubit gates per ``(name, params)`` and,
    against a single-qubit query, multi-qubit gates per ``(name, params,
    position of the shared qubit)`` -- the keys its verdicts are cached on.
    Those deduplicated gates only ever grow, and a verdict against one
    depends only on the query's ``(name, params, position of the shared
    qubit)``.  So each bucket keeps, per such query key, how many of them
    have passed (or that one failed), and a repeated query only checks the
    ones filed since; a multi-qubit query is still checked against every
    multi-qubit gate.  :meth:`commutes` therefore equals :func:`commutes`
    over every overlapping filed gate, with the query first.
    """

    __slots__ = ("_buckets", "calls")

    def __init__(self) -> None:
        # qubit -> axis -> (single-qubit gates by (name, params),
        # multi-qubit gates by (name, params, position), all multi-qubit
        # gates, query key -> (singles, patterns) passed or None if failed)
        self._buckets: Dict[int, Dict[Optional[str], tuple]] = {}
        #: ``commutes`` calls made by the queries so far.
        self.calls = 0

    @property
    def qubits(self):
        """Live view of the qubits the filed gates act on."""
        return self._buckets.keys()

    def add(self, gate: Gate) -> None:
        buckets = self._buckets
        axes = pauli_axes(gate)
        single = len(gate.qubits) == 1
        for position, qubit in enumerate(gate.qubits):
            by_axis = buckets.get(qubit)
            if by_axis is None:
                by_axis = buckets[qubit] = {}
            bucket = by_axis.get(axes[position])
            if bucket is None:
                bucket = by_axis[axes[position]] = ({}, {}, [], {})
            if single:
                bucket[0].setdefault((gate.name, gate.params), gate)
            else:
                bucket[1].setdefault((gate.name, gate.params, position), gate)
                bucket[2].append(gate)

    def commutes(self, gate: Gate) -> bool:
        """Does ``gate`` commute with every filed gate it overlaps?"""
        buckets = self._buckets
        axes = pauli_axes(gate)
        single = len(gate.qubits) == 1
        for position, qubit in enumerate(gate.qubits):
            by_axis = buckets.get(qubit)
            if by_axis is None:
                continue
            mine = axes[position]
            key = (gate.name, gate.params, position)
            for axis, (singles, patterns, multis, passed) in by_axis.items():
                if axis is not None and axis == mine:
                    continue
                state = passed.get(key, (0, 0))
                if state is None:
                    return False
                done_singles, done_patterns = state
                if done_singles < len(singles):
                    for other in islice(singles.values(), done_singles, None):
                        self.calls += 1
                        if not commutes(gate, other):
                            passed[key] = None
                            return False
                if single:
                    if done_patterns < len(patterns):
                        for other in islice(patterns.values(), done_patterns,
                                            None):
                            self.calls += 1
                            if not commutes(gate, other):
                                passed[key] = None
                                return False
                    passed[key] = (len(singles), len(patterns))
                    continue
                # A multi-qubit query never checks ``patterns`` (a barrier's
                # key does not tell its arity), and is checked pairwise
                # against ``multis``.
                passed[key] = (len(singles), done_patterns)
                for other in multis:
                    self.calls += 1
                    if not commutes(gate, other):
                        return False
        return True


# ---------------------------------------------------------------------------
# Matrix fallback
# ---------------------------------------------------------------------------

def _matrix_commutes(a: Gate, b: Gate) -> bool:
    """Exact check on the joint unitary of ``a`` and ``b`` (uncached)."""
    return _matrix_verdict(_matrix_key(a, b))


def _matrix_key(a: Gate, b: Gate) -> tuple:
    """The pair with its qubits renumbered onto their sorted union."""
    union = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(union)}
    return (
        a.name, a.params, tuple(index[q] for q in a.qubits),
        b.name, b.params, tuple(index[q] for q in b.qubits),
        len(union),
    )


def _matrix_verdict(key: tuple) -> bool:
    (name_a, params_a, pos_a, name_b, params_b, pos_b, n) = key
    mat_a = _embed(name_a, params_a, pos_a, n)
    mat_b = _embed(name_b, params_b, pos_b, n)
    return bool(np.allclose(mat_a @ mat_b, mat_b @ mat_a, atol=_ATOL))


def _embed(name: str, params: Tuple[float, ...], positions: Tuple[int, ...],
           num_qubits: int) -> np.ndarray:
    """Embed a gate unitary acting on ``positions`` into ``num_qubits`` qubits."""
    gate_u = gate_spec(name).unitary(*params)
    k = len(positions)
    dim = 2 ** num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    # Build by iterating over computational basis states: for each basis state
    # of the full register, apply the gate to the sub-register.
    gate_dim = 2 ** k
    for basis in range(dim):
        bits = [(basis >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        sub = 0
        for pos in positions:
            sub = (sub << 1) | bits[pos]
        column = gate_u[:, sub]
        for sub_out in range(gate_dim):
            amp = column[sub_out]
            if amp == 0:
                continue
            out_bits = list(bits)
            for i, pos in enumerate(positions):
                out_bits[pos] = (sub_out >> (k - 1 - i)) & 1
            out_index = 0
            for bit in out_bits:
                out_index = (out_index << 1) | bit
            full[out_index, basis] += amp
    return full
