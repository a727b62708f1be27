"""Quantum circuit container.

A :class:`Circuit` is an ordered list of :class:`~repro.ir.gates.Gate`
instructions over ``num_qubits`` globally-indexed qubits.  It supports the
usual construction helpers (``circuit.cx(0, 1)``), composition, inversion,
depth/width accounting and qubit-usage queries.  The distributed-computing
layers treat circuits purely as gate lists; commutation analysis lives in
:mod:`repro.ir.commutation`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import Gate

__all__ = ["Circuit"]


class Circuit:
    """An ordered sequence of gates on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None,
                 name: str = "circuit") -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------ basics

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The instruction list as an immutable tuple."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Circuit(name={self.name!r}, num_qubits={self.num_qubits}, "
                f"num_gates={len(self._gates)})")

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Return a shallow copy (gates are immutable, so this is safe)."""
        return Circuit(self.num_qubits, self._gates, name=name or self.name)

    # --------------------------------------------------------------- mutation

    def append(self, gate: Gate) -> "Circuit":
        """Append a gate, validating its qubit indices against the circuit."""
        if not isinstance(gate, Gate):
            raise TypeError(f"expected Gate, got {type(gate).__name__}")
        if gate.qubits and max(gate.qubits) >= self.num_qubits:
            raise ValueError(
                f"gate {gate!r} addresses qubit {max(gate.qubits)} but circuit "
                f"has only {self.num_qubits} qubits"
            )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    def extend_trusted(self, gates: Iterable[Gate]) -> "Circuit":
        """Bulk-append gates already validated against this circuit.

        For decode paths (:mod:`repro.persist`) replaying gate lists that
        were validated when first constructed; skips the per-gate type and
        qubit-range checks of :meth:`append`, which dominate rebuilding
        circuits with tens of thousands of gates.
        """
        self._gates.extend(gates)
        return self

    def add(self, name: str, qubits: Sequence[int],
            params: Sequence[float] = ()) -> "Circuit":
        """Append a gate by name."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    # Convenience constructors for the common gate set -------------------------

    def x(self, q: int) -> "Circuit":
        return self.add("x", [q])

    def y(self, q: int) -> "Circuit":
        return self.add("y", [q])

    def z(self, q: int) -> "Circuit":
        return self.add("z", [q])

    def h(self, q: int) -> "Circuit":
        return self.add("h", [q])

    def s(self, q: int) -> "Circuit":
        return self.add("s", [q])

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", [q])

    def t(self, q: int) -> "Circuit":
        return self.add("t", [q])

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", [q])

    def sx(self, q: int) -> "Circuit":
        return self.add("sx", [q])

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", [q], [theta])

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", [q], [theta])

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add("rz", [q], [theta])

    def p(self, theta: float, q: int) -> "Circuit":
        return self.add("p", [q], [theta])

    def u3(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.add("u3", [q], [theta, phi, lam])

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", [control, target])

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add("cz", [control, target])

    def cy(self, control: int, target: int) -> "Circuit":
        return self.add("cy", [control, target])

    def ch(self, control: int, target: int) -> "Circuit":
        return self.add("ch", [control, target])

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("crz", [control, target], [theta])

    def crx(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("crx", [control, target], [theta])

    def cry(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("cry", [control, target], [theta])

    def cp(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("cp", [control, target], [theta])

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", [a, b])

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rzz", [a, b], [theta])

    def rxx(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rxx", [a, b], [theta])

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.add("ccx", [c1, c2, target])

    def ccz(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.add("ccz", [c1, c2, target])

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        return self.add("cswap", [control, a, b])

    def measure(self, q: int) -> "Circuit":
        return self.add("measure", [q])

    def reset(self, q: int) -> "Circuit":
        return self.add("reset", [q])

    def barrier(self, qubits: Optional[Sequence[int]] = None) -> "Circuit":
        qubits = tuple(qubits) if qubits is not None else tuple(range(self.num_qubits))
        return self.append(Gate("barrier", qubits))

    # ------------------------------------------------------------- composition

    def compose(self, other: "Circuit",
                qubit_map: Optional[Dict[int, int]] = None) -> "Circuit":
        """Append another circuit's gates onto this one.

        Args:
            other: the circuit to append.
            qubit_map: optional map from ``other``'s qubit indices to this
                circuit's indices.  Identity when omitted.
        """
        if qubit_map is None:
            if other.num_qubits > self.num_qubits:
                raise ValueError("composed circuit has more qubits than target")
            for gate in other:
                self.append(gate)
        else:
            for gate in other:
                self.append(gate.remap(qubit_map))
        return self

    def inverse(self) -> "Circuit":
        """Return the inverse circuit (gates inverted, order reversed)."""
        inv = Circuit(self.num_qubits, name=f"{self.name}_dg")
        for gate in reversed(self._gates):
            if gate.is_barrier:
                inv.append(gate)
            else:
                inv.append(gate.inverse())
        return inv

    def remapped(self, qubit_map: Dict[int, int],
                 num_qubits: Optional[int] = None) -> "Circuit":
        """Return a copy with every gate's qubits re-indexed via ``qubit_map``."""
        new_n = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(new_n, name=self.name)
        for gate in self._gates:
            out.append(gate.remap(qubit_map))
        return out

    def without_barriers(self) -> "Circuit":
        """Return a copy with all barrier instructions removed."""
        return Circuit(self.num_qubits,
                       (g for g in self._gates if not g.is_barrier),
                       name=self.name)

    # ---------------------------------------------------------------- analysis

    def count_ops(self) -> Dict[str, int]:
        """Return a gate-name -> count histogram."""
        return dict(Counter(g.name for g in self._gates))

    def num_two_qubit_gates(self) -> int:
        return sum(1 for g in self._gates if g.is_multi_qubit)

    def num_cx_gates(self) -> int:
        return sum(1 for g in self._gates if g.name == "cx")

    def used_qubits(self) -> Tuple[int, ...]:
        """Return the sorted tuple of qubits touched by at least one gate."""
        used = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return tuple(sorted(used))

    def depth(self) -> int:
        """Circuit depth counting every non-barrier instruction as one layer."""
        level: Dict[int, int] = defaultdict(int)
        depth = 0
        for gate in self._gates:
            if gate.is_barrier:
                continue
            start = max((level[q] for q in gate.qubits), default=0)
            for q in gate.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def two_qubit_depth(self) -> int:
        """Depth counting only multi-qubit gates."""
        level: Dict[int, int] = defaultdict(int)
        depth = 0
        for gate in self._gates:
            if not gate.is_multi_qubit:
                continue
            start = max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def interaction_pairs(self) -> Counter:
        """Histogram of unordered qubit pairs joined by multi-qubit gates."""
        pairs: Counter = Counter()
        for gate in self._gates:
            if gate.is_multi_qubit:
                qubits = sorted(gate.qubits)
                for i in range(len(qubits)):
                    for j in range(i + 1, len(qubits)):
                        pairs[(qubits[i], qubits[j])] += 1
        return pairs

    def summary(self) -> Dict[str, object]:
        """Small dictionary of headline statistics (used by reports/tests)."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "num_gates": len(self._gates),
            "num_2q_gates": self.num_two_qubit_gates(),
            "num_cx": self.num_cx_gates(),
            "depth": self.depth(),
        }
