"""Gate definitions for the quantum circuit IR.

The IR works with a fixed, explicit gate library.  Each gate is an immutable
:class:`Gate` instance referencing a :class:`GateSpec` in the registry.  The
registry records, for every gate name, the number of qubits, the number of
parameters, a unitary builder and a handful of structural properties
(diagonality, self-inverseness, the rotation axis for single-qubit rotations)
that the commutation engine and the decomposition pass rely on.

All qubits are referenced by global integer indices; the mapping of qubit
indices to quantum nodes lives in :mod:`repro.partition`, not here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_REGISTRY",
    "gate_spec",
    "gate_unitary",
    "is_supported_gate",
    "SINGLE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "DIAGONAL_GATES",
    "standard_gate_names",
]


# ---------------------------------------------------------------------------
# Unitary builders
# ---------------------------------------------------------------------------

def _u_i() -> np.ndarray:
    return np.eye(2, dtype=complex)


def _u_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _u_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _u_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _u_h() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _u_s() -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _u_sdg() -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=complex)


def _u_t() -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)


def _u_tdg() -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)


def _u_sx() -> np.ndarray:
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def _u_rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _u_ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _u_rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]],
        dtype=complex,
    )


def _u_p(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


def _u_u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _controlled(u: np.ndarray) -> np.ndarray:
    """Return the controlled version of a single-qubit unitary.

    Qubit ordering convention: qubit 0 (the control) is the *most
    significant* bit of the basis index, matching
    :mod:`repro.ir.simulator`.
    """
    dim = u.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = u
    return out


def _u_cx() -> np.ndarray:
    return _controlled(_u_x())


def _u_cz() -> np.ndarray:
    return _controlled(_u_z())


def _u_cy() -> np.ndarray:
    return _controlled(_u_y())


def _u_ch() -> np.ndarray:
    return _controlled(_u_h())


def _u_crz(theta: float) -> np.ndarray:
    return _controlled(_u_rz(theta))


def _u_crx(theta: float) -> np.ndarray:
    return _controlled(_u_rx(theta))


def _u_cry(theta: float) -> np.ndarray:
    return _controlled(_u_ry(theta))


def _u_cp(theta: float) -> np.ndarray:
    return _controlled(_u_p(theta))


def _u_swap() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _u_rzz(theta: float) -> np.ndarray:
    a = cmath.exp(-1j * theta / 2)
    b = cmath.exp(1j * theta / 2)
    return np.diag([a, b, b, a]).astype(complex)

def _u_rxx(theta: float) -> np.ndarray:
    c = math.cos(theta / 2)
    s = -1j * math.sin(theta / 2)
    return np.array(
        [[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]], dtype=complex
    )


def _u_ccx() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    out[6, 6] = out[7, 7] = 0
    out[6, 7] = out[7, 6] = 1
    return out


def _u_ccz() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    out[7, 7] = -1
    return out


def _u_cswap() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    # swap qubits 1 and 2 when qubit 0 (most significant) is 1
    out[5, 5] = out[6, 6] = 0
    out[5, 6] = out[6, 5] = 1
    return out


# ---------------------------------------------------------------------------
# Gate specification registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes:
        name: canonical lower-case gate name.
        num_qubits: number of qubits the gate acts on (0 qubit count means
            "variable", used only for ``barrier``).
        num_params: number of real parameters.
        unitary: callable building the gate unitary from its parameters, or
            ``None`` for non-unitary operations (measure, reset, barrier).
        diagonal: True when the unitary is diagonal in the computational
            basis (commutes with Z and with CX controls).
        self_inverse: True when the gate is its own inverse (parameter-free
            gates only).
        axis: rotation axis ("x", "y" or "z") for single-qubit gates that are
            rotations about a fixed axis up to global phase; ``None``
            otherwise.
        inverse_name: name of the inverse gate when it is a different
            registry entry (e.g. ``s``/``sdg``); parameterised gates invert
            by negating parameters.
    """

    name: str
    num_qubits: int
    num_params: int
    unitary: Optional[Callable[..., np.ndarray]]
    diagonal: bool = False
    self_inverse: bool = False
    axis: Optional[str] = None
    inverse_name: Optional[str] = None


def _spec(*args, **kwargs) -> GateSpec:
    return GateSpec(*args, **kwargs)


GATE_REGISTRY: Dict[str, GateSpec] = {
    # single-qubit, parameter-free
    "id": _spec("id", 1, 0, _u_i, diagonal=True, self_inverse=True),
    "x": _spec("x", 1, 0, _u_x, self_inverse=True, axis="x"),
    "y": _spec("y", 1, 0, _u_y, self_inverse=True, axis="y"),
    "z": _spec("z", 1, 0, _u_z, diagonal=True, self_inverse=True, axis="z"),
    "h": _spec("h", 1, 0, _u_h, self_inverse=True),
    "s": _spec("s", 1, 0, _u_s, diagonal=True, axis="z", inverse_name="sdg"),
    "sdg": _spec("sdg", 1, 0, _u_sdg, diagonal=True, axis="z", inverse_name="s"),
    "t": _spec("t", 1, 0, _u_t, diagonal=True, axis="z", inverse_name="tdg"),
    "tdg": _spec("tdg", 1, 0, _u_tdg, diagonal=True, axis="z", inverse_name="t"),
    "sx": _spec("sx", 1, 0, _u_sx, axis="x", inverse_name="sxdg"),
    "sxdg": _spec("sxdg", 1, 0, lambda: _u_sx().conj().T, axis="x", inverse_name="sx"),
    # single-qubit, parameterised
    "rx": _spec("rx", 1, 1, _u_rx, axis="x"),
    "ry": _spec("ry", 1, 1, _u_ry, axis="y"),
    "rz": _spec("rz", 1, 1, _u_rz, diagonal=True, axis="z"),
    "p": _spec("p", 1, 1, _u_p, diagonal=True, axis="z"),
    "u3": _spec("u3", 1, 3, _u_u3),
    # two-qubit
    "cx": _spec("cx", 2, 0, _u_cx, self_inverse=True),
    "cz": _spec("cz", 2, 0, _u_cz, diagonal=True, self_inverse=True),
    "cy": _spec("cy", 2, 0, _u_cy, self_inverse=True),
    "ch": _spec("ch", 2, 0, _u_ch, self_inverse=True),
    "crz": _spec("crz", 2, 1, _u_crz, diagonal=True),
    "crx": _spec("crx", 2, 1, _u_crx),
    "cry": _spec("cry", 2, 1, _u_cry),
    "cp": _spec("cp", 2, 1, _u_cp, diagonal=True),
    "swap": _spec("swap", 2, 0, _u_swap, self_inverse=True),
    "rzz": _spec("rzz", 2, 1, _u_rzz, diagonal=True),
    "rxx": _spec("rxx", 2, 1, _u_rxx),
    # three-qubit
    "ccx": _spec("ccx", 3, 0, _u_ccx, self_inverse=True),
    "ccz": _spec("ccz", 3, 0, _u_ccz, diagonal=True, self_inverse=True),
    "cswap": _spec("cswap", 3, 0, _u_cswap, self_inverse=True),
    # non-unitary / structural
    "measure": _spec("measure", 1, 0, None),
    "reset": _spec("reset", 1, 0, None),
    "barrier": _spec("barrier", 0, 0, None),
}

SINGLE_QUBIT_GATES = frozenset(
    name for name, spec in GATE_REGISTRY.items() if spec.num_qubits == 1 and spec.unitary
)
TWO_QUBIT_GATES = frozenset(
    name for name, spec in GATE_REGISTRY.items() if spec.num_qubits == 2
)
DIAGONAL_GATES = frozenset(
    name for name, spec in GATE_REGISTRY.items() if spec.diagonal
)


def standard_gate_names() -> Tuple[str, ...]:
    """Return the names of all registered gates in a stable order."""
    return tuple(sorted(GATE_REGISTRY))


def is_supported_gate(name: str) -> bool:
    """Return True if ``name`` refers to a registered gate."""
    return name in GATE_REGISTRY


def gate_spec(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for ``name``.

    Raises:
        KeyError: if the gate is not registered.
    """
    try:
        return GATE_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown gate {name!r}; registered gates: "
                       f"{', '.join(standard_gate_names())}") from None


# ---------------------------------------------------------------------------
# Gate instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """A gate applied to specific qubits.

    ``qubits`` holds global qubit indices; the first index is the control for
    controlled gates (and the first two for doubly-controlled gates).
    ``params`` holds the real gate parameters (angles).
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        spec = gate_spec(self.name)
        qubits = tuple(map(int, self.qubits))
        params = tuple(map(float, self.params))
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)
        if spec.name != "barrier" and len(qubits) != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_qubits} qubits, "
                f"got {len(qubits)}"
            )
        qubit_set = frozenset(qubits)
        if len(qubit_set) != len(qubits):
            raise ValueError(f"gate {self.name!r} applied to duplicate qubits {qubits}")
        if len(params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} params, "
                f"got {len(params)}"
            )
        if qubits and min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        # The compiler's hot paths (commutation checks, aggregation scans)
        # query these structural facts millions of times per compile; each is
        # immutable once the gate is validated, so compute them once here
        # instead of chasing the registry on every property access.  Only
        # plain picklable values are cached.
        unitary = spec.unitary is not None
        n = len(qubits)
        object.__setattr__(self, "_qubit_set", qubit_set)
        object.__setattr__(self, "_is_unitary", unitary)
        object.__setattr__(self, "_is_single", unitary and n == 1)
        object.__setattr__(self, "_is_two", unitary and n == 2)
        object.__setattr__(self, "_is_multi", unitary and n >= 2)

    @classmethod
    def from_trusted(cls, name: str, qubits: Tuple[int, ...],
                     params: Tuple[float, ...] = ()) -> "Gate":
        """Rebuild a gate from already-validated fields.

        Skips ``__post_init__``'s per-field validation (but not the cached
        structural facts) for decode paths that replay this class's own
        output, where every field was validated when the gate was first
        built — :mod:`repro.persist` decodes tens of thousands of gates
        per artifact and the validation dominates an otherwise cheap load.
        """
        spec = gate_spec(name)
        gate = object.__new__(cls)
        set_attr = object.__setattr__
        set_attr(gate, "name", name)
        set_attr(gate, "qubits", qubits)
        set_attr(gate, "params", params)
        unitary = spec.unitary is not None
        n = len(qubits)
        set_attr(gate, "_qubit_set", frozenset(qubits))
        set_attr(gate, "_is_unitary", unitary)
        set_attr(gate, "_is_single", unitary and n == 1)
        set_attr(gate, "_is_two", unitary and n == 2)
        set_attr(gate, "_is_multi", unitary and n >= 2)
        return gate

    # -- structural properties -------------------------------------------------

    @property
    def spec(self) -> GateSpec:
        return gate_spec(self.name)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def qubit_set(self) -> frozenset:
        """The gate's qubits as a cached frozenset (no per-call allocation)."""
        return self._qubit_set

    @property
    def is_unitary(self) -> bool:
        return self._is_unitary

    @property
    def is_single_qubit(self) -> bool:
        return self._is_single

    @property
    def is_two_qubit(self) -> bool:
        return self._is_two

    @property
    def is_multi_qubit(self) -> bool:
        return self._is_multi

    @property
    def is_measurement(self) -> bool:
        return self.name == "measure"

    @property
    def is_barrier(self) -> bool:
        return self.name == "barrier"

    @property
    def control(self) -> Optional[int]:
        """The control qubit of a controlled two-qubit gate, else None."""
        if self.name in ("cx", "cz", "cy", "ch", "crz", "crx", "cry", "cp"):
            return self.qubits[0]
        return None

    @property
    def target(self) -> Optional[int]:
        """The target qubit of a controlled two-qubit gate, else None."""
        if self.control is not None:
            return self.qubits[1]
        return None

    # -- algebra ----------------------------------------------------------------

    def unitary(self) -> np.ndarray:
        """Return the gate's unitary matrix (qubit 0 = most significant)."""
        builder = self.spec.unitary
        if builder is None:
            raise ValueError(f"gate {self.name!r} has no unitary")
        return builder(*self.params)

    def inverse(self) -> "Gate":
        """Return the inverse gate (same qubits)."""
        spec = self.spec
        if spec.unitary is None:
            raise ValueError(f"gate {self.name!r} is not invertible")
        if spec.self_inverse:
            return self
        if spec.inverse_name is not None:
            return Gate(spec.inverse_name, self.qubits, self.params)
        if spec.num_params > 0 and self.name != "u3":
            return Gate(self.name, self.qubits, tuple(-p for p in self.params))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", self.qubits, (-theta, -lam, -phi))
        raise ValueError(f"cannot invert gate {self.name!r}")

    def remap(self, qubit_map: Dict[int, int]) -> "Gate":
        """Return a copy of the gate with qubits re-indexed via ``qubit_map``."""
        return Gate(self.name, tuple(qubit_map[q] for q in self.qubits), self.params)

    def overlaps(self, other: "Gate") -> bool:
        """Return True when this gate shares at least one qubit with ``other``."""
        return not self._qubit_set.isdisjoint(other._qubit_set)

    def acts_on(self, qubit: int) -> bool:
        return qubit in self.qubits

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            params = "(" + ", ".join(f"{p:.4g}" for p in self.params) + ")"
        else:
            params = ""
        qubits = ", ".join(str(q) for q in self.qubits)
        return f"{self.name}{params} {qubits}"


def gate_unitary(gate: Gate) -> np.ndarray:
    """Convenience wrapper around :meth:`Gate.unitary`."""
    return gate.unitary()
