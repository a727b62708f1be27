"""Unit tests for the commutation engine.

Every verdict is cross-checked against the exact matrix criterion, and
against the hand-written rules of the reference engine, so a wrong axis
table or cache key cannot silently corrupt the aggregation pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Circuit, Gate, commutes
from repro.ir.commutation import (_matrix_commutes, clear_commutation_cache,
                                  commutation_cache_stats)
from repro.ir.commutation_reference import commutes_reference
from repro.ir.simulator import circuit_unitary


def matrix_says(gate_a, gate_b):
    """Ground truth: compare the two orderings on the joint unitary."""
    qubits = sorted(set(gate_a.qubits) | set(gate_b.qubits))
    index = {q: i for i, q in enumerate(qubits)}
    a = gate_a.remap(index)
    b = gate_b.remap(index)
    n = len(qubits)
    ab = circuit_unitary(Circuit(n, [a, b]))
    ba = circuit_unitary(Circuit(n, [b, a]))
    return np.allclose(ab, ba, atol=1e-9)


class TestTrivialCases:
    def test_disjoint_qubits_commute(self):
        assert commutes(Gate("cx", (0, 1)), Gate("cx", (2, 3)))

    def test_same_gate_commutes_with_itself(self):
        gate = Gate("cx", (0, 1))
        assert commutes(gate, gate)

    def test_measure_blocks_everything_on_its_qubit(self):
        assert not commutes(Gate("measure", (0,)), Gate("h", (0,)))
        assert commutes(Gate("measure", (0,)), Gate("h", (1,)))

    def test_barrier_blocks_shared_qubits(self):
        assert not commutes(Gate("barrier", (0, 1)), Gate("h", (0,)))

    def test_identity_commutes_with_everything(self):
        assert commutes(Gate("id", (0,)), Gate("h", (0,)))
        assert commutes(Gate("id", (1,)), Gate("cx", (0, 1)))


class TestSingleQubitRules:
    @pytest.mark.parametrize("a,b,expected", [
        (Gate("z", (0,)), Gate("rz", (0,), (0.3,)), True),
        (Gate("t", (0,)), Gate("s", (0,)), True),
        (Gate("x", (0,)), Gate("rx", (0,), (0.3,)), True),
        (Gate("x", (0,)), Gate("z", (0,)), False),
        (Gate("h", (0,)), Gate("t", (0,)), False),
        (Gate("h", (0,)), Gate("x", (0,)), False),
        (Gate("rz", (0,), (0.2,)), Gate("rz", (0,), (1.2,)), True),
        (Gate("ry", (0,), (0.2,)), Gate("ry", (0,), (1.2,)), True),
        (Gate("rx", (0,), (0.2,)), Gate("rz", (0,), (1.2,)), False),
    ])
    def test_single_qubit_pairs(self, a, b, expected):
        assert commutes(a, b) is expected
        assert matrix_says(a, b) is expected


class TestControlTargetRules:
    @pytest.mark.parametrize("single,expected", [
        (Gate("z", (0,)), True),
        (Gate("rz", (0,), (0.4,)), True),
        (Gate("t", (0,)), True),
        (Gate("s", (0,)), True),
        (Gate("x", (0,)), False),
        (Gate("h", (0,)), False),
    ])
    def test_single_qubit_on_cx_control(self, single, expected):
        cx = Gate("cx", (0, 1))
        assert commutes(single, cx) is expected
        assert matrix_says(single, cx) is expected

    @pytest.mark.parametrize("single,expected", [
        (Gate("x", (1,)), True),
        (Gate("rx", (1,), (0.4,)), True),
        (Gate("sx", (1,)), True),
        (Gate("z", (1,)), False),
        (Gate("t", (1,)), False),
        (Gate("h", (1,)), False),
    ])
    def test_single_qubit_on_cx_target(self, single, expected):
        cx = Gate("cx", (0, 1))
        assert commutes(single, cx) is expected
        assert matrix_says(single, cx) is expected

    def test_rz_on_cz_either_qubit(self):
        cz = Gate("cz", (0, 1))
        assert commutes(Gate("rz", (0,), (0.3,)), cz)
        assert commutes(Gate("rz", (1,), (0.3,)), cz)

    def test_rz_on_rzz_either_qubit(self):
        rzz = Gate("rzz", (0, 1), (0.5,))
        assert commutes(Gate("t", (0,)), rzz)
        assert commutes(Gate("rz", (1,), (0.1,)), rzz)

    def test_x_on_rzz_does_not_commute(self):
        assert not commutes(Gate("x", (0,)), Gate("rzz", (0, 1), (0.5,)))

    def test_z_on_ccx_controls(self):
        ccx = Gate("ccx", (0, 1, 2))
        assert commutes(Gate("t", (0,)), ccx)
        assert commutes(Gate("t", (1,)), ccx)
        assert not commutes(Gate("t", (2,)), ccx)
        assert commutes(Gate("x", (2,)), ccx)


class TestTwoQubitRules:
    def test_cx_same_control(self):
        assert commutes(Gate("cx", (0, 1)), Gate("cx", (0, 2)))

    def test_cx_same_target(self):
        assert commutes(Gate("cx", (0, 2)), Gate("cx", (1, 2)))

    def test_cx_control_meets_target(self):
        assert not commutes(Gate("cx", (0, 1)), Gate("cx", (1, 2)))

    def test_cx_reversed_pair(self):
        assert not commutes(Gate("cx", (0, 1)), Gate("cx", (1, 0)))

    def test_diagonal_two_qubit_gates_commute(self):
        assert commutes(Gate("cz", (0, 1)), Gate("crz", (1, 2), (0.3,)))
        assert commutes(Gate("rzz", (0, 1), (0.2,)), Gate("rzz", (1, 2), (0.4,)))
        assert commutes(Gate("cp", (0, 1), (0.2,)), Gate("cz", (0, 1)))

    def test_crz_with_cx_sharing_control(self):
        # CRZ is diagonal, so it commutes through the CX control.
        assert commutes(Gate("crz", (0, 2), (0.3,)), Gate("cx", (0, 1)))

    def test_rzz_with_cx_on_cx_target_does_not_commute(self):
        a = Gate("rzz", (1, 2), (0.3,))
        b = Gate("cx", (0, 1))
        assert commutes(a, b) is matrix_says(a, b)

    def test_swap_with_cx(self):
        a = Gate("swap", (0, 1))
        b = Gate("cx", (0, 1))
        assert commutes(a, b) is matrix_says(a, b)

    @pytest.mark.parametrize("a,b", [
        (Gate("cx", (0, 1)), Gate("cz", (0, 1))),
        (Gate("cx", (0, 1)), Gate("cz", (1, 2))),
        (Gate("cx", (0, 1)), Gate("rzz", (0, 2), (0.7,))),
        (Gate("crz", (0, 1), (0.5,)), Gate("crz", (1, 0), (0.5,))),
        (Gate("cy", (0, 1)), Gate("cx", (0, 1))),
        (Gate("rxx", (0, 1), (0.3,)), Gate("cx", (0, 1))),
        (Gate("ccx", (0, 1, 2)), Gate("cx", (0, 1))),
        (Gate("ccx", (0, 1, 2)), Gate("cx", (2, 3))),
    ])
    def test_mixed_pairs_match_matrix_ground_truth(self, a, b):
        assert commutes(a, b) is matrix_says(a, b)


class TestHelpers:
    def test_cache_can_be_cleared(self):
        assert commutes(Gate("cy", (0, 1)), Gate("ch", (0, 1))) is matrix_says(
            Gate("cy", (0, 1)), Gate("ch", (0, 1)))
        clear_commutation_cache()
        # Same query still answers consistently after a cache clear.
        assert commutes(Gate("cy", (0, 1)), Gate("ch", (0, 1))) is matrix_says(
            Gate("cy", (0, 1)), Gate("ch", (0, 1)))

    def test_matrix_fallback_direct(self):
        assert _matrix_commutes(Gate("t", (0,)), Gate("rz", (0,), (0.1,)))
        assert not _matrix_commutes(Gate("h", (0,)), Gate("t", (0,)))


# ---------------------------------------------------------------------------
# Property test: rule paths agree with the exact matrix criterion
# ---------------------------------------------------------------------------

_PARAM_POOL = (0.3, 0.7, np.pi / 4, np.pi, -1.1)
_GATE_POOL = ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx",
              "rx", "ry", "rz", "p", "u3",
              "cx", "cz", "cy", "ch", "crz", "crx", "cry", "cp", "swap",
              "rzz", "rxx", "ccx", "ccz", "cswap")


@st.composite
def _random_gate(draw):
    from repro.ir import gate_spec

    name = draw(st.sampled_from(_GATE_POOL))
    spec = gate_spec(name)
    qubits = tuple(draw(st.permutations(range(4)))[:spec.num_qubits])
    params = tuple(draw(st.sampled_from(_PARAM_POOL))
                   for _ in range(spec.num_params))
    return Gate(name, qubits, params)


class TestRuleMatrixAgreement:
    """The rule-based fast paths must agree with the matrix ground truth."""

    @settings(max_examples=120, deadline=None)
    @given(_random_gate(), _random_gate())
    def test_commutes_matches_matrix(self, a, b):
        assert commutes(a, b) is matrix_says(a, b)

    @settings(max_examples=60, deadline=None)
    @given(_random_gate(), _random_gate())
    def test_optimized_matches_reference(self, a, b):
        assert commutes(a, b) is commutes_reference(a, b)


class TestCacheStatistics:
    def setup_method(self):
        clear_commutation_cache()

    def teardown_method(self):
        clear_commutation_cache()

    def test_stats_track_hits_and_misses(self):
        # cy/ch differ in axis on their shared target, so the matrix check
        # decides them through the cache.
        a, b = Gate("cy", (0, 1)), Gate("ch", (0, 1))
        baseline = commutation_cache_stats()
        assert baseline["hits"] == baseline["misses"] == 0

        commutes(a, b)
        after_first = commutation_cache_stats()
        assert after_first["misses"] == 1
        assert after_first["size"] == 1

        commutes(a, b)
        after_second = commutation_cache_stats()
        assert after_second["hits"] == 1
        assert after_second["misses"] == 1

    def test_same_pattern_shares_one_entry(self):
        commutes(Gate("cy", (0, 1)), Gate("ch", (0, 1)))
        # Same structural overlap on different concrete qubits: cache hit.
        commutes(Gate("cy", (5, 9)), Gate("ch", (5, 9)))
        stats = commutation_cache_stats()
        assert stats["hits"] == 1
        assert stats["size"] == 1

    def test_axis_matched_pairs_bypass_cache(self):
        commutes(Gate("cx", (0, 1)), Gate("cx", (0, 2)))
        commutes(Gate("rz", (0,), (0.2,)), Gate("rz", (0,), (0.4,)))
        stats = commutation_cache_stats()
        assert stats["hits"] == stats["misses"] == 0

    def test_clear_resets_everything(self):
        commutes(Gate("cy", (0, 1)), Gate("ch", (0, 1)))
        clear_commutation_cache()
        stats = commutation_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "size": 0,
                         "matrix_cache_size": 0}


# ---------------------------------------------------------------------------
# Exhaustive agreement on three qubits
# ---------------------------------------------------------------------------

_EXHAUSTIVE_ANGLES = (0.3, np.pi / 2 ** 30)


def _every_gate_on_three_qubits():
    """Every registered gate in every placement on qubits 0-2.

    Parametrised gates take each angle of ``_EXHAUSTIVE_ANGLES`` (all of a
    gate's parameters set to it) and barriers span 1-3 qubits.
    """
    from itertools import permutations

    from repro.ir import gate_spec, standard_gate_names

    gates = []
    for name in standard_gate_names():
        spec = gate_spec(name)
        arities = (1, 2, 3) if name == "barrier" else (spec.num_qubits,)
        params = ([(angle,) * spec.num_params for angle in _EXHAUSTIVE_ANGLES]
                  if spec.num_params else [()])
        for arity in arities:
            for qubits in permutations(range(3), arity):
                gates.extend(Gate(name, qubits, p) for p in params)
    return gates


class TestExhaustiveAgreement:
    """``commutes`` equals the reference engine on every three-qubit pair.

    Covers every overlap pattern the aggregation pass can meet among
    registered gates, multi-qubit x multi-qubit included, in both orders,
    first on a cold cache and then on the warm one it left behind.
    """

    def setup_method(self):
        clear_commutation_cache()

    def teardown_method(self):
        clear_commutation_cache()

    def test_every_pair_matches_reference_cold_and_warm(self):
        gates = _every_gate_on_three_qubits()
        assert len(gates) == 204
        expected = []
        for a in gates:
            for b in gates:
                verdict = commutes_reference(a, b)
                expected.append((a, b, verdict))
                if a.is_unitary and b.is_unitary:
                    assert _matrix_commutes(a, b) is verdict, (a, b)
        clear_commutation_cache()
        for temperature in ("cold", "warm"):
            mismatches = [(a, b) for a, b, verdict in expected
                          if commutes(a, b) is not verdict]
            assert not mismatches, (temperature, mismatches[:5])
