"""Gate commutation analysis.

AutoComm's aggregation pass reorders gates to expose burst communication, so
it needs a reliable answer to "do these two gates commute?".  We combine

* fast structural rules (the X-rotation-centred rules of Figure 7 in the
  paper plus the standard diagonal/control/target rules), and
* an exact matrix check on the joint unitary as a fallback.

Every decided pair — rule-based *and* matrix-based — is memoised on a
canonical ``(name, params, overlap-pattern)`` key, so repeated queries over
large circuits (the aggregation and scheduling passes ask the same
structural question for thousands of concrete gate pairs) collapse to one
dict lookup.  The matrix fallback keeps the engine *sound* for every
registered gate pair; the rules only make the first occurrence of each
pattern fast.  The cache is always on: it changes how fast an answer comes,
never the answer, which the tests check against the uncached copy in
:mod:`repro.ir.commutation_reference`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Dict, Optional, Tuple

import numpy as np

from .gates import DIAGONAL_GATES, GATE_REGISTRY, Gate, gate_spec

__all__ = [
    "GateFrontier",
    "pauli_axes",
    "commutes",
    "clear_commutation_cache",
    "commutation_cache_stats",
]

_ATOL = 1e-9

# Pair-level memo: canonical (names, params, relative qubit overlap) -> bool.
# Bounded defensively; a full clear on overflow is simpler than LRU eviction
# and the bound is far above what any benchmark circuit generates.
_PAIR_CACHE: Dict[tuple, bool] = {}
_PAIR_CACHE_MAX = 1 << 20
_STATS = {"hits": 0, "misses": 0, "rule_decided": 0, "matrix_decided": 0}

# Single-qubit gates that commute with being the *control* of a CX/CZ/CRZ/CP
# (i.e. diagonal gates) and with being the *target* of a CX (X-axis gates).
_Z_AXIS = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "p", "id"})
_X_AXIS = frozenset({"x", "sx", "sxdg", "rx", "id"})

# Two-qubit controlled gates, and which of their qubits is control/target.
_CONTROLLED_2Q = frozenset({"cx", "cz", "cy", "ch", "crz", "crx", "cry", "cp"})
# Diagonal two-qubit gates: commute with any Z-axis single-qubit gate on
# either operand and with each other.
_DIAGONAL_2Q = frozenset({"cz", "crz", "cp", "rzz"})

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
    """Clear the memoised commutation results (pair-level and matrix-level)."""
    _PAIR_CACHE.clear()
    _matrix_commutes_cached.cache_clear()
    for key in _STATS:
        _STATS[key] = 0


def commutation_cache_stats() -> Dict[str, int]:
    """Hit/miss statistics of the pair-level commutation cache.

    ``hits``/``misses`` count lookups of the pair-level cache;
    ``rule_decided``/``matrix_decided`` split the misses by which engine
    settled them.  ``size`` is the number of memoised pair patterns and
    ``matrix_cache_size`` the entries of the underlying matrix memo.
    """
    info = _matrix_commutes_cached.cache_info()
    return {**_STATS, "size": len(_PAIR_CACHE),
            "matrix_cache_size": info.currsize}


def _pair_key(a: Gate, b: Gate) -> tuple:
    """Canonical (name, params, relative-overlap) key of an ordered gate pair.

    Qubits are renumbered by their rank within the pair's qubit union, so
    every concrete pair with the same structural overlap shares one entry.
    """
    union = sorted(a._qubit_set | b._qubit_set)
    index = {q: i for i, q in enumerate(union)}
    return (a.name, a.params, tuple(index[q] for q in a.qubits),
            b.name, b.params, tuple(index[q] for q in b.qubits))


def commutes(gate_a: Gate, gate_b: Gate) -> bool:
    """Return True when ``gate_a`` and ``gate_b`` commute.

    Barriers, measurements and resets are treated as commuting with nothing
    that shares a qubit with them (conservative).

    Decision tiers, cheapest first: disjoint qubits; zero-allocation
    structural rules (identity, diagonal pairs, axis-aligned single-qubit
    gates, control/target rules, CX-CX); then the pair-level cache over the
    overlap-pattern rules and the exact matrix check.  The fast rules are
    *not* routed through the cache because a single dict probe on the
    canonical key costs more than they do.
    """
    if gate_a._qubit_set.isdisjoint(gate_b._qubit_set):
        return True
    if not gate_a._is_unitary or not gate_b._is_unitary:
        return False

    # The commonest fast rules are inlined: one extra function call per
    # query is measurable at the aggregation pass's call volume.
    name_a = gate_a.name
    name_b = gate_b.name
    if name_a == "cx" and name_b == "cx":
        qa = gate_a.qubits
        qb = gate_b.qubits
        # Same control or same target -> commute; control/target collision -> not.
        if qa == qb:
            return True
        if qa[0] == qb[0] and qa[1] != qb[1]:
            return True
        return qa[1] == qb[1] and qa[0] != qb[0]
    if name_a in DIAGONAL_GATES and name_b in DIAGONAL_GATES:
        return True

    rule = _fast_rules(gate_a, gate_b)
    if rule is not None:
        return rule

    # A single-qubit gate against a multi-qubit one only depends on where
    # the shared qubit sits in the multi-qubit gate: key on that position
    # instead of building the sorted-union overlap pattern.
    if gate_a._is_single and gate_b._is_multi:
        key = (gate_a.name, gate_a.params, gate_b.name, gate_b.params,
               gate_b.qubits.index(gate_a.qubits[0]), True)
    elif gate_b._is_single and gate_a._is_multi:
        key = (gate_b.name, gate_b.params, gate_a.name, gate_a.params,
               gate_a.qubits.index(gate_b.qubits[0]), False)
    else:
        key = _pair_key(gate_a, gate_b)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1
    rule = _overlap_rules(gate_a, gate_b)
    if rule is not None:
        _STATS["rule_decided"] += 1
        result = rule
    else:
        _STATS["matrix_decided"] += 1
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
# Rule-based fast paths
# ---------------------------------------------------------------------------

def _fast_rules(a: Gate, b: Gate) -> Optional[bool]:
    """Structural rules that never inspect the overlap pattern.

    These are cheaper than one cache probe, so :func:`commutes` runs them
    before touching the pair-level cache.  The CX-CX and diagonal-pair
    rules are inlined in :func:`commutes` itself and therefore absent here.
    Returns None when undecided.
    """
    # Identity commutes with everything.
    if a.name == "id" or b.name == "id":
        return True

    if a._is_single:
        if b._is_single:
            axis_a = _AXES[a.name][0]
            if axis_a is not None and axis_a == _AXES[b.name][0]:
                return True
            return None
        if b._is_multi:
            return _single_multi(a, b)
        return None
    if b._is_single:
        if a._is_multi:
            return _single_multi(b, a)
        return None

    return None


def _overlap_rules(a: Gate, b: Gate) -> Optional[bool]:
    """Rules that depend on which qubits the two gates share.

    Only reached when the inlined fast rules and :func:`_fast_rules` are
    undecided; the verdict (or the matrix fallback's) is memoised by
    :func:`commutes` on the canonical overlap-pattern key.  Returns None
    when undecided.
    """
    if a._is_two and b._is_two:
        return _two_two(a, b, a._qubit_set & b._qubit_set)
    return None


def _single_multi(single: Gate, multi: Gate) -> Optional[bool]:
    q = single.qubits[0]
    if multi.name in _CONTROLLED_2Q or multi.name in ("ccx", "ccz", "cswap"):
        controls, targets = _controls_targets(multi)
        if q in controls:
            # A Z-axis gate commutes with any control.
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
    """Return the (controls, targets) qubit split of a controlled gate."""
    if gate.name in _CONTROLLED_2Q:
        return (gate.qubits[0],), (gate.qubits[1],)
    if gate.name in ("ccx", "ccz"):
        return gate.qubits[:2], gate.qubits[2:]
    if gate.name == "cswap":
        return gate.qubits[:1], gate.qubits[1:]
    return (), gate.qubits


def _two_two(a: Gate, b: Gate, shared: set) -> Optional[bool]:
    # CX-CX and diagonal-diagonal pairs are decided by the rules inlined in
    # commutes() and never reach this function.
    if {a.name, b.name} <= (_CONTROLLED_2Q | {"rzz"}):
        # A diagonal 2q gate commutes with a controlled gate when every shared
        # qubit sits on the controlled gate's control and the diagonal gate is
        # Z-like on that qubit (always true for cz/crz/cp/rzz).
        diag, other = (a, b) if a.name in _DIAGONAL_2Q else (b, a)
        if diag.name in _DIAGONAL_2Q and other.name in _CONTROLLED_2Q:
            controls, _ = _controls_targets(other)
            if shared <= set(controls):
                return True
            if other.name in _DIAGONAL_2Q:
                return True
            return None
    return None


# ---------------------------------------------------------------------------
# Matrix fallback
# ---------------------------------------------------------------------------

def _matrix_commutes(a: Gate, b: Gate) -> bool:
    union = sorted(set(a.qubits) | set(b.qubits))
    index = {q: i for i, q in enumerate(union)}
    key = (
        a.name, a.params, tuple(index[q] for q in a.qubits),
        b.name, b.params, tuple(index[q] for q in b.qubits),
        len(union),
    )
    return _matrix_commutes_cached(key)


@lru_cache(maxsize=200_000)
def _matrix_commutes_cached(key) -> bool:
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
