"""Unit tests for the gate registry and Gate instances."""


import numpy as np
import pytest

from repro.ir.commutation import pauli_axes
from repro.ir.gates import (
    DIAGONAL_GATES,
    GATE_REGISTRY,
    Gate,
    gate_spec,
    is_supported_gate,
    standard_gate_names,
)


class TestRegistry:
    def test_standard_names_sorted_and_unique(self):
        names = standard_gate_names()
        assert list(names) == sorted(set(names))

    def test_common_gates_registered(self):
        for name in ("x", "y", "z", "h", "s", "t", "rx", "ry", "rz", "cx", "cz",
                     "crz", "swap", "rzz", "ccx", "measure", "barrier"):
            assert is_supported_gate(name)

    def test_unknown_gate_not_supported(self):
        assert not is_supported_gate("frobnicate")

    def test_gate_spec_raises_for_unknown(self):
        with pytest.raises(KeyError):
            gate_spec("frobnicate")

    def test_spec_qubit_counts(self):
        assert gate_spec("h").num_qubits == 1
        assert gate_spec("cx").num_qubits == 2
        assert gate_spec("ccx").num_qubits == 3

    def test_spec_param_counts(self):
        assert gate_spec("rz").num_params == 1
        assert gate_spec("u3").num_params == 3
        assert gate_spec("cx").num_params == 0

    def test_diagonal_set_contents(self):
        assert "rz" in DIAGONAL_GATES
        assert "cz" in DIAGONAL_GATES
        assert "rzz" in DIAGONAL_GATES
        assert "x" not in DIAGONAL_GATES
        assert "cx" not in DIAGONAL_GATES

    @pytest.mark.parametrize("name", sorted(
        n for n, s in GATE_REGISTRY.items() if s.unitary is not None))
    def test_every_unitary_is_unitary(self, name):
        spec = GATE_REGISTRY[name]
        params = tuple(0.37 * (i + 1) for i in range(spec.num_params))
        matrix = spec.unitary(*params)
        dim = 2 ** spec.num_qubits
        assert matrix.shape == (dim, dim)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-10)

    @pytest.mark.parametrize("name", sorted(DIAGONAL_GATES))
    def test_diagonal_flag_matches_matrix(self, name):
        spec = GATE_REGISTRY[name]
        if spec.unitary is None:
            pytest.skip("non-unitary")
        params = tuple(0.53 for _ in range(spec.num_params))
        matrix = spec.unitary(*params)
        assert np.allclose(matrix, np.diag(np.diag(matrix)), atol=1e-10)

    @pytest.mark.parametrize("name", sorted(
        n for n, s in GATE_REGISTRY.items() if s.self_inverse))
    def test_self_inverse_flag_matches_matrix(self, name):
        matrix = GATE_REGISTRY[name].unitary()
        dim = matrix.shape[0]
        assert np.allclose(matrix @ matrix, np.eye(dim), atol=1e-10)


class TestGateConstruction:
    def test_basic_construction(self):
        gate = Gate("cx", (0, 1))
        assert gate.name == "cx"
        assert gate.qubits == (0, 1)
        assert gate.params == ()

    def test_parameters_coerced_to_float(self):
        gate = Gate("rz", (2,), (1,))
        assert gate.params == (1.0,)
        assert isinstance(gate.params[0], float)

    def test_qubits_coerced_to_int(self):
        gate = Gate("h", (np.int64(3),))
        assert gate.qubits == (3,)
        assert isinstance(gate.qubits[0], int)

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(ValueError, match="'cx' expects 2 qubits, got 1"):
            Gate("cx", (0,))

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError, match="'rz' expects 1 params, got 0"):
            Gate("rz", (0,), ())

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError,
                           match=r"'cx' applied to duplicate qubits \(1, 1\)"):
            Gate("cx", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match=r"negative qubit index in \(-1,\)"):
            Gate("h", (-1,))

    def test_empty_barrier_accepted(self):
        assert Gate("barrier", ()).qubit_set == frozenset()

    def test_unknown_gate_rejected(self):
        with pytest.raises(KeyError):
            Gate("nope", (0,))

    def test_gates_are_hashable_and_equal_by_value(self):
        a = Gate("crz", (0, 1), (0.5,))
        b = Gate("crz", (0, 1), (0.5,))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestGateProperties:
    def test_control_target_of_cx(self):
        gate = Gate("cx", (3, 5))
        assert gate.control == 3
        assert gate.target == 5

    def test_control_none_for_symmetric_gates(self):
        assert Gate("rzz", (0, 1), (0.3,)).control is None
        assert Gate("swap", (0, 1)).control is None
        assert Gate("h", (0,)).control is None

    def test_single_and_two_qubit_flags(self):
        assert Gate("h", (0,)).is_single_qubit
        assert not Gate("h", (0,)).is_two_qubit
        assert Gate("cx", (0, 1)).is_two_qubit
        assert Gate("ccx", (0, 1, 2)).is_multi_qubit
        assert not Gate("ccx", (0, 1, 2)).is_two_qubit

    def test_measurement_and_barrier_flags(self):
        assert Gate("measure", (0,)).is_measurement
        assert not Gate("measure", (0,)).is_unitary
        assert Gate("barrier", (0, 1)).is_barrier

    def test_axis_classification(self):
        assert pauli_axes(Gate("rx", (0,), (0.3,))) == ("x",)
        assert pauli_axes(Gate("rz", (0,), (0.3,))) == ("z",)
        assert pauli_axes(Gate("t", (0,))) == ("z",)
        assert pauli_axes(Gate("h", (0,))) == (None,)

    def test_overlaps(self):
        a = Gate("cx", (0, 1))
        assert a.overlaps(Gate("h", (1,)))
        assert not a.overlaps(Gate("h", (2,)))

    def test_acts_on(self):
        gate = Gate("cx", (0, 4))
        assert gate.acts_on(4)
        assert not gate.acts_on(2)

    def test_remap(self):
        gate = Gate("cx", (0, 1))
        remapped = gate.remap({0: 5, 1: 3})
        assert remapped.qubits == (5, 3)
        assert remapped.name == "cx"


class TestGateAlgebra:
    def test_unitary_of_cx(self):
        expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                             [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        assert np.allclose(Gate("cx", (0, 1)).unitary(), expected)

    def test_unitary_raises_for_measure(self):
        with pytest.raises(ValueError):
            Gate("measure", (0,)).unitary()

    @pytest.mark.parametrize("name,params", [
        ("h", ()), ("x", ()), ("s", ()), ("t", ()), ("sdg", ()), ("tdg", ()),
        ("rx", (0.7,)), ("ry", (1.1,)), ("rz", (2.2,)), ("p", (0.9,)),
        ("cx", ()), ("cz", ()), ("crz", (0.4,)), ("swap", ()),
        ("rzz", (1.3,)), ("ccx", ()), ("u3", (0.1, 0.2, 0.3)),
    ])
    def test_inverse_cancels(self, name, params):
        qubits = tuple(range(Gate(name, tuple(range(3)), params).num_qubits)) \
            if name == "ccx" else tuple(range(len(params) and 1 or 1))
        spec_qubits = {"cx": (0, 1), "cz": (0, 1), "crz": (0, 1), "swap": (0, 1),
                       "rzz": (0, 1), "ccx": (0, 1, 2)}
        qubits = spec_qubits.get(name, (0,))
        gate = Gate(name, qubits, params)
        inverse = gate.inverse()
        product = gate.unitary() @ inverse.unitary()
        assert np.allclose(product, np.eye(product.shape[0]), atol=1e-10)

    def test_inverse_of_s_is_sdg(self):
        assert Gate("s", (0,)).inverse().name == "sdg"
        assert Gate("tdg", (0,)).inverse().name == "t"

    def test_inverse_of_rotation_negates_angle(self):
        assert Gate("rz", (0,), (0.5,)).inverse().params == (-0.5,)

    def test_inverse_of_self_inverse_is_same(self):
        gate = Gate("cx", (0, 1))
        assert gate.inverse() is gate

    def test_rz_p_phase_relation(self):
        # P(theta) equals RZ(theta) up to a global phase of theta/2.
        theta = 0.77
        rz = Gate("rz", (0,), (theta,)).unitary()
        p = Gate("p", (0,), (theta,)).unitary()
        phase = np.exp(1j * theta / 2)
        assert np.allclose(p, phase * rz, atol=1e-10)

    def test_crz_matches_manual_construction(self):
        theta = 1.23
        crz = Gate("crz", (0, 1), (theta,)).unitary()
        expected = np.eye(4, dtype=complex)
        expected[2, 2] = np.exp(-1j * theta / 2)
        expected[3, 3] = np.exp(1j * theta / 2)
        assert np.allclose(crz, expected)
