"""Burst-communication blocks.

A *burst communication block* (Section 3.2 of the paper) is a group of
continuous remote two-qubit gates between one qubit (the *hub*) and one
remote node, possibly interleaved with local gates that were merged into the
block by the aggregation pass.  The block is the unit of work for the
assignment and scheduling passes: it is executed through one Cat-Comm
invocation (1 EPR pair) or one TP-Comm round trip (2 EPR pairs).

This module defines the block data structure, its pattern analysis
(unidirectional-control / unidirectional-target / bidirectional, and whether
single-qubit gates on the hub "block" a cheap Cat-Comm implementation) and
the Cat-Comm segmentation used to cost blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.gates import Gate
from ..partition.mapping import QubitMapping

__all__ = ["CommPattern", "CommScheme", "CommBlock", "cat_comm_segments"]


class CommPattern(enum.Enum):
    """Communication pattern of a burst block (Figure 9 of the paper)."""

    #: The hub qubit is the control of every remote CX (Figure 9a).
    UNIDIRECTIONAL_CONTROL = "unidirectional-control"
    #: The hub qubit is the target of every remote CX (Figure 9c).
    UNIDIRECTIONAL_TARGET = "unidirectional-target"
    #: The hub qubit appears both as control and as target (Figure 9b).
    BIDIRECTIONAL = "bidirectional"


class CommScheme(enum.Enum):
    """Remote communication scheme assigned to a block."""

    CAT = "cat-comm"
    TP = "tp-comm"


# Hub-side single-qubit gates that do not break a Cat-Comm segment where the
# hub acts as control (they commute with the CX control)...
_CONTROL_TRANSPARENT = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "p", "id"})
# ... and where the hub acts as target (they commute with the CX target).
_TARGET_TRANSPARENT = frozenset({"x", "sx", "sxdg", "rx", "id"})


@dataclass
class CommBlock:
    """One burst-communication block.

    Attributes:
        hub_qubit: the program qubit on one side of every remote gate.
        hub_node: node hosting the hub qubit.
        remote_node: the node hosting all the partner qubits.
        gates: gates belonging to the block, in program order.  Remote
            two-qubit gates connect the hub to partner qubits on
            ``remote_node``; local gates merged into the block act on the hub
            or on ``remote_node`` qubits.
        scheme: communication scheme chosen by the assignment pass (None
            before assignment).
    """

    hub_qubit: int
    hub_node: int
    remote_node: int
    gates: List[Gate] = field(default_factory=list)
    scheme: Optional[CommScheme] = None

    def __post_init__(self) -> None:
        # Incrementally maintained union of the gates' qubits; the
        # aggregation and scheduling hot paths query it per candidate gate,
        # so it must not be recomputed by scanning ``gates`` every time.
        touched: Set[int] = set()
        for gate in self.gates:
            touched.update(gate.qubits)
        self._touched = touched
        # Mapping-derived analyses (remote-gate list, Cat-Comm segments) are
        # asked for repeatedly by assignment, cost accounting, scheduling and
        # simulation; they only change when the gate list does, so they are
        # cached per mapping object and dropped on mutation.  Each slot holds
        # (mapping, value) and is validated by identity, so a different
        # mapping never sees stale data.
        self._analysis_cache: Dict[str, Tuple[QubitMapping, object]] = {}

    def _cached_analysis(self, key: str, mapping: QubitMapping, compute):
        slot = self._analysis_cache.get(key)
        if slot is not None and slot[0] is mapping:
            return slot[1]
        value = compute()
        self._analysis_cache[key] = (mapping, value)
        return value

    # ---------------------------------------------------------------- content

    def __len__(self) -> int:
        return len(self.gates)

    def append(self, gate: Gate) -> None:
        self.gates.append(gate)
        self._touched.update(gate.qubits)
        if self._analysis_cache:
            self._analysis_cache.clear()

    def extend(self, gates: Iterable[Gate]) -> None:
        for gate in gates:
            self.gates.append(gate)
            self._touched.update(gate.qubits)
        if self._analysis_cache:
            self._analysis_cache.clear()

    def remote_gates(self, mapping: QubitMapping) -> List[Gate]:
        """The remote two-qubit gates of the block (hub <-> remote node)."""
        return self._cached_analysis(
            "remote", mapping,
            lambda: [g for g in self.gates
                     if g.is_two_qubit and mapping.is_remote(g)
                     and self.hub_qubit in g._qubit_set])

    def num_remote_gates(self, mapping: QubitMapping) -> int:
        return len(self.remote_gates(mapping))

    def gate_counts(self) -> Tuple[int, int]:
        """(multi-qubit, single-qubit) gate counts, cached per gate list."""
        slot = self._analysis_cache.get("counts")
        if slot is not None:
            return slot[1]
        num_multi = 0
        num_single = 0
        for gate in self.gates:
            if gate._is_multi:
                num_multi += 1
            elif gate._is_single:
                num_single += 1
        counts = (num_multi, num_single)
        self._analysis_cache["counts"] = (None, counts)
        return counts

    def touched_qubits(self) -> Tuple[int, ...]:
        """All program qubits appearing in the block."""
        return tuple(sorted(self._touched))

    @property
    def touched_set(self) -> Set[int]:
        """Cached set of all program qubits in the block (do not mutate)."""
        return self._touched

    @property
    def nodes(self) -> Tuple[int, int]:
        """The two nodes participating in the communication."""
        return (self.hub_node, self.remote_node)

    # ---------------------------------------------------------------- patterns

    def pattern(self, mapping: QubitMapping) -> CommPattern:
        """Classify the block as unidirectional (control/target) or bidirectional."""
        roles = set()
        for gate in self.remote_gates(mapping):
            if gate.control == self.hub_qubit:
                roles.add("control")
            elif gate.target == self.hub_qubit:
                roles.add("target")
            else:
                # Symmetric remote gate (e.g. rzz); both roles are possible,
                # treat as control-compatible since diagonal gates commute
                # with the hub acting as a Cat-Comm control.
                roles.add("control")
        if roles == {"control"}:
            return CommPattern.UNIDIRECTIONAL_CONTROL
        if roles == {"target"}:
            return CommPattern.UNIDIRECTIONAL_TARGET
        return CommPattern.BIDIRECTIONAL

    def cat_comm_cost(self, mapping: QubitMapping) -> int:
        """Number of Cat-Comm invocations (EPR pairs) needed for this block."""
        return len(cat_comm_segments(self, mapping))

    def tp_comm_cost(self) -> int:
        """Number of communications for TP-Comm: teleport out plus release."""
        return 2

    def epr_cost(self, mapping: QubitMapping) -> int:
        """EPR pairs consumed under the assigned (or best) scheme."""
        if self.scheme is CommScheme.CAT:
            return self.cat_comm_cost(mapping)
        if self.scheme is CommScheme.TP:
            return self.tp_comm_cost()
        return min(self.cat_comm_cost(mapping), self.tp_comm_cost())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scheme = self.scheme.value if self.scheme else "unassigned"
        return (f"CommBlock(hub=q{self.hub_qubit}@n{self.hub_node}, "
                f"remote=n{self.remote_node}, gates={len(self.gates)}, {scheme})")


def cat_comm_segments(block: CommBlock, mapping: QubitMapping) -> List[List[Gate]]:
    """Split a block into maximal runs each executable by one Cat-Comm call.

    A run accumulates remote gates while (a) the hub keeps the same role
    (control or target) and (b) no opaque single-qubit gate on the hub
    appears between two remote gates of the run.  Local partner-side gates
    never end a run (they execute on the remote node while the cat state is
    live, cf. Figure 3).

    The segmentation is cached on the block (assignment, cost accounting and
    the scheduler all ask for it); the cache drops when the block mutates.
    """
    return block._cached_analysis(
        "segments", mapping, lambda: _cat_comm_segments(block, mapping))


def _cat_comm_segments(block: CommBlock, mapping: QubitMapping) -> List[List[Gate]]:
    segments: List[List[Gate]] = []
    current: List[Gate] = []
    current_role: Optional[str] = None
    pending_hub_blocker = False

    def close() -> None:
        nonlocal current, current_role, pending_hub_blocker
        if current:
            segments.append(current)
        current = []
        current_role = None
        pending_hub_blocker = False

    for gate in block.gates:
        is_remote = gate.is_two_qubit and mapping.is_remote(gate) and block.hub_qubit in gate.qubits
        if is_remote:
            if gate.control == block.hub_qubit:
                role = "control"
            elif gate.target == block.hub_qubit:
                role = "target"
            else:
                role = "control"  # symmetric diagonal remote gate
            if current_role is None:
                current_role = role
            elif role != current_role or pending_hub_blocker:
                close()
                current_role = role
            current.append(gate)
            pending_hub_blocker = False
        elif gate.is_single_qubit and gate.qubits[0] == block.hub_qubit:
            transparent = (_CONTROL_TRANSPARENT if current_role in (None, "control")
                           else _TARGET_TRANSPARENT)
            if gate.name not in transparent and current:
                pending_hub_blocker = True
            current.append(gate)
        else:
            # Local gate on the remote node's qubits: part of the current run.
            current.append(gate)
    close()
    return [seg for seg in segments if any(
        g.is_two_qubit and mapping.is_remote(g) for g in seg)] or ([block.gates] if block.gates else [])
