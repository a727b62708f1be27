"""Property-based tests for zero-bubble (overlapped) phase boundaries.

The two acceptance invariants, over randomly generated phased programs:

* the overlapped schedule is never slower than the barrier schedule — the
  adaptive scheduler keeps the barrier plans in its candidate pool, so
  this must hold by construction on *every* input, not just the benches;
* overlapping preserves per-qubit dependency causality: for any qubit,
  ops of a later phase never start before ops of an earlier phase
  touching the same qubit retire, and every migration teleport falls
  strictly between the two phase windows of its qubit.  (The autoverify
  fixture additionally runs the full static checker suite — including the
  extended ``schedule-causality`` and ``migration-legality`` passes — on
  every program these tests compile.)
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AutoCommConfig, MigrationOp, compile_autocomm
from repro.core.scheduling import _item_qubits
from repro.hardware import apply_topology, uniform_network
from repro.ir import Circuit, Gate
from repro.sim.engine import plan_for_program

NUM_QUBITS = 6
NUM_NODES = 3

_TOL = 1e-9


@st.composite
def bursty_circuits(draw):
    """Circuits with repeated remote CX bursts so remap produces phases."""
    gates = []
    num_bursts = draw(st.integers(3, 6))
    for _ in range(num_bursts):
        a = draw(st.integers(0, NUM_QUBITS - 1))
        b = draw(st.integers(0, NUM_QUBITS - 1).filter(lambda x: x != a))
        repeats = draw(st.integers(1, 4))
        gates.extend([Gate("cx", (a, b))] * repeats)
        if draw(st.booleans()):
            gates.append(Gate("h", (draw(st.integers(0, NUM_QUBITS - 1)),)))
    return Circuit(NUM_QUBITS, gates)


def _network():
    network = uniform_network(NUM_NODES, NUM_QUBITS // NUM_NODES)
    apply_topology(network, "line")
    return network


def _compile(circuit, overlap):
    return compile_autocomm(
        circuit, _network(),
        config=AutoCommConfig(remap="bursts", phase_blocks=2,
                              overlap=overlap))


#: Circuits on which the overlapped pool holds a plan that ties the best
#: barrier plan's latency with a larger bubble, or beats it with a larger
#: bubble; neither plan may win over the barrier plan.
_BUBBLIER_OVERLAP = {
    "latency-tie": [(0, 2), (0, 2), (0, 1), (5, 0), (5, 0), (5, 0), (2, 0),
                    (2, 4), 1, (0, 1)],
    "faster": [(2, 1), (2, 1), (2, 1), (5, 3), (5, 3), (5, 3), (5, 3), 3,
               (5, 0), (5, 0), (5, 0), (1, 5), (1, 5), (1, 5), (1, 5), 5,
               (3, 4), 5, (4, 1), (4, 1), 2],
}


def _bubblier_overlap_circuit(name):
    return Circuit(NUM_QUBITS, [
        Gate("cx", spec) if isinstance(spec, tuple) else Gate("h", (spec,))
        for spec in _BUBBLIER_OVERLAP[name]])


@pytest.mark.parametrize("name", sorted(_BUBBLIER_OVERLAP))
def test_bubblier_overlap_plan_does_not_win(name):
    circuit = _bubblier_overlap_circuit(name)
    barrier = _compile(circuit, overlap=False)
    overlapped = _compile(circuit, overlap=True)
    assert overlapped.metrics.latency <= barrier.metrics.latency + _TOL
    assert (overlapped.metrics.boundary_bubble
            <= barrier.metrics.boundary_bubble + _TOL)


class TestOverlapProperties:
    @settings(max_examples=20, deadline=None)
    @given(bursty_circuits())
    def test_never_slower_than_barrier(self, circuit):
        barrier = _compile(circuit, overlap=False)
        overlapped = _compile(circuit, overlap=True)
        assert overlapped.metrics.latency <= barrier.metrics.latency + _TOL
        assert (overlapped.metrics.boundary_bubble
                <= barrier.metrics.boundary_bubble + _TOL)

    @settings(max_examples=20, deadline=None)
    @given(bursty_circuits())
    def test_per_qubit_phase_causality_preserved(self, circuit):
        program = _compile(circuit, overlap=True)
        plan = plan_for_program(program)
        per_qubit = {}
        migrations = []
        for op in program.schedule.ops:
            item = plan.items[op.index]
            phase = plan.item_phases[op.index]
            if isinstance(item, MigrationOp):
                migrations.append((item, phase, op))
                per_qubit.setdefault(item.qubit, []).append((phase, op))
            else:
                for qubit in _item_qubits(item, NUM_QUBITS):
                    per_qubit.setdefault(qubit, []).append((phase, op))
        for qubit, entries in per_qubit.items():
            for phase_a, op_a in entries:
                for phase_b, op_b in entries:
                    if phase_a < phase_b:
                        assert op_b.start >= op_a.end - _TOL, (
                            f"qubit {qubit}: phase-{phase_b} op starts at "
                            f"{op_b.start} before phase-{phase_a} op "
                            f"retires at {op_a.end}")
        for move, phase, op in migrations:
            for other_phase, other in per_qubit[move.qubit]:
                if other is op:
                    continue
                if other_phase <= phase - 1:
                    assert other.end <= op.start + _TOL
                else:
                    assert other.start >= op.end - _TOL
