"""Unit tests for CX-basis decomposition."""

import numpy as np
import pytest

from repro.ir import Circuit, Gate, decompose_gate, decompose_to_cx, mct_v_chain
from repro.ir.decompose import _HANDLERS, CX_BASIS
from repro.ir.gates import gate_spec
from repro.ir.simulator import (
    circuit_unitary,
    simulate,
    unitaries_equal_up_to_global_phase,
)

DECOMPOSABLE = [
    Gate("cz", (0, 1)),
    Gate("cy", (0, 1)),
    Gate("ch", (0, 1)),
    Gate("crz", (0, 1), (0.73,)),
    Gate("crx", (0, 1), (1.21,)),
    Gate("cry", (0, 1), (0.31,)),
    Gate("cp", (0, 1), (2.2,)),
    Gate("swap", (0, 1)),
    Gate("rzz", (0, 1), (0.9,)),
    Gate("rxx", (0, 1), (0.4,)),
    Gate("ccx", (0, 1, 2)),
    Gate("ccz", (0, 1, 2)),
    Gate("cswap", (0, 1, 2)),
]


class TestGateDecompositions:
    @pytest.mark.parametrize("gate", DECOMPOSABLE, ids=lambda g: g.name)
    def test_decomposition_preserves_unitary(self, gate):
        n = max(gate.qubits) + 1
        original = circuit_unitary(Circuit(n, [gate]))
        decomposed = circuit_unitary(Circuit(n, decompose_gate(gate)))
        assert unitaries_equal_up_to_global_phase(original, decomposed)

    @pytest.mark.parametrize("gate", DECOMPOSABLE, ids=lambda g: g.name)
    def test_decomposition_only_uses_cx_basis(self, gate):
        for sub in decompose_gate(gate):
            assert sub.name in CX_BASIS

    def test_basis_gates_pass_through(self):
        gate = Gate("rz", (0,), (0.5,))
        assert decompose_gate(gate) == [gate]

    def test_cx_passes_through(self):
        gate = Gate("cx", (1, 0))
        assert decompose_gate(gate) == [gate]

    def test_measure_passes_through(self):
        gate = Gate("measure", (0,))
        assert decompose_gate(gate) == [gate]

    def test_crz_uses_two_cx(self):
        gates = decompose_gate(Gate("crz", (0, 1), (0.3,)))
        assert sum(1 for g in gates if g.name == "cx") == 2

    def test_rzz_uses_two_cx(self):
        gates = decompose_gate(Gate("rzz", (0, 1), (0.3,)))
        assert sum(1 for g in gates if g.name == "cx") == 2

    def test_swap_uses_three_cx(self):
        gates = decompose_gate(Gate("swap", (0, 1)))
        assert [g.name for g in gates] == ["cx", "cx", "cx"]

    def test_ccx_uses_six_cx(self):
        gates = decompose_gate(Gate("ccx", (0, 1, 2)))
        assert sum(1 for g in gates if g.name == "cx") == 6

    def test_decomposition_respects_qubit_labels(self):
        gates = decompose_gate(Gate("crz", (4, 2), (0.3,)))
        touched = {q for g in gates for q in g.qubits}
        assert touched == {2, 4}


class TestTrustedConstruction:
    """Handlers build gates with ``Gate.from_trusted``; they must equal the
    validated construction field by field, cached facts included."""

    @pytest.mark.parametrize("name", sorted(_HANDLERS))
    def test_handler_gates_equal_validated_gates(self, name):
        spec = gate_spec(name)
        gate = Gate(name, (5, 2, 7)[:spec.num_qubits],
                    (0.73,)[:spec.num_params])
        subs = decompose_gate(gate)
        assert subs
        for sub in subs:
            validated = Gate(sub.name, sub.qubits, sub.params)
            assert sub == validated
            assert sub.qubit_set == validated.qubit_set
            assert vars(sub) == vars(validated)
            assert all(type(q) is int for q in sub.qubits)
            assert all(type(p) is float for p in sub.params)

    def test_handlers_cover_every_decomposable_gate(self):
        assert sorted(_HANDLERS) == sorted(g.name for g in DECOMPOSABLE)

    def test_circuit_equals_validated_append(self):
        circuit = (Circuit(8).h(0).crz(0.4, 0, 1).swap(1, 2).ccz(3, 4, 5)
                   .rxx(0.2, 6, 7).cswap(7, 2, 5).cp(0.7, 2, 1))
        expected = Circuit(8)
        for gate in circuit:
            for sub in decompose_gate(gate):
                expected.append(Gate(sub.name, sub.qubits, sub.params))
        assert list(decompose_to_cx(circuit)) == list(expected)


class TestCircuitDecomposition:
    def test_decompose_to_cx_structure(self):
        circuit = Circuit(3).h(0).crz(0.4, 0, 1).rzz(0.2, 1, 2).ccx(0, 1, 2)
        out = decompose_to_cx(circuit)
        assert all(g.name in CX_BASIS for g in out)
        assert out.num_qubits == 3

    def test_decompose_to_cx_preserves_unitary(self):
        circuit = (Circuit(3).h(0).crz(0.4, 0, 1).swap(1, 2)
                   .rzz(0.2, 0, 2).cp(0.7, 2, 1).ccx(0, 1, 2))
        original = circuit_unitary(circuit)
        decomposed = circuit_unitary(decompose_to_cx(circuit))
        assert unitaries_equal_up_to_global_phase(original, decomposed)

    def test_decompose_preserves_name(self):
        circuit = Circuit(2, name="my-prog").cz(0, 1)
        assert decompose_to_cx(circuit).name == "my-prog"

    def test_decompose_empty_circuit(self):
        out = decompose_to_cx(Circuit(4))
        assert len(out) == 0
        assert out.num_qubits == 4

    def test_decompose_is_idempotent(self):
        circuit = Circuit(3).crz(0.4, 0, 1).ccx(0, 1, 2)
        once = decompose_to_cx(circuit)
        twice = decompose_to_cx(once)
        assert once == twice


class TestMCTVChain:
    def test_single_control_is_cx(self):
        circuit = mct_v_chain([0], 1, [])
        assert [g.name for g in circuit] == ["cx"]

    def test_two_controls_is_ccx(self):
        circuit = mct_v_chain([0, 1], 2, [])
        assert [g.name for g in circuit] == ["ccx"]

    def test_missing_ancillas_rejected(self):
        with pytest.raises(ValueError):
            mct_v_chain([0, 1, 2, 3], 4, [])

    def test_no_controls_rejected(self):
        with pytest.raises(ValueError):
            mct_v_chain([], 1, [])

    @pytest.mark.parametrize("num_controls", [3, 4, 5])
    def test_v_chain_computes_logical_and(self, num_controls):
        controls = list(range(num_controls))
        ancillas = list(range(num_controls, 2 * num_controls - 2))
        target = 2 * num_controls - 2
        circuit = mct_v_chain(controls, target, ancillas)
        n = circuit.num_qubits

        # All controls set: the target flips and the ancillas are restored.
        prep = Circuit(n)
        for c in controls:
            prep.x(c)
        prep.extend(circuit.gates)
        state = simulate(prep)
        index = np.argmax(np.abs(state))
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        assert bits[target] == 1
        assert all(bits[a] == 0 for a in ancillas)

    def test_v_chain_does_not_fire_with_one_control_missing(self):
        controls, ancillas, target = [0, 1, 2], [3], 4
        circuit = mct_v_chain(controls, target, ancillas)
        prep = Circuit(circuit.num_qubits)
        prep.x(0).x(1)  # control 2 left at |0>
        prep.extend(circuit.gates)
        state = simulate(prep)
        index = np.argmax(np.abs(state))
        target_bit = (index >> (circuit.num_qubits - 1 - target)) & 1
        assert target_bit == 0

    def test_v_chain_ancillas_restored_on_random_control_pattern(self):
        controls, ancillas, target = [0, 1, 2, 3], [4, 5], 6
        circuit = mct_v_chain(controls, target, ancillas)
        prep = Circuit(circuit.num_qubits)
        prep.x(0).x(2)
        prep.extend(circuit.gates)
        state = simulate(prep)
        index = np.argmax(np.abs(state))
        bits = [(index >> (circuit.num_qubits - 1 - q)) & 1
                for q in range(circuit.num_qubits)]
        assert bits[4] == 0 and bits[5] == 0
        assert bits[target] == 0
