"""Shared pytest fixtures and an import-path fallback.

The fallback lets the suite run straight from a source checkout even when
the package has not been installed (useful in the offline environment where
``pip install -e .`` may be unavailable).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - only hit without an install
        sys.path.insert(0, _SRC)

import random

import pytest

from repro.circuits import arithmetic_snippet, arithmetic_snippet_layout, qft_circuit
from repro.circuits.random_circuits import random_circuit
from repro.hardware import uniform_network
from repro.ir import Circuit
from repro.partition import QubitMapping


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_autoverify: opt a test out of the automatic static verification "
        "of every program it compiles (mutation tests corrupt compiled "
        "artifacts on purpose)")


@pytest.fixture(autouse=True)
def _autoverify_compiled_programs(request):
    """Statically verify every program the test compiles, at teardown.

    Wraps :meth:`repro.core.pipeline.AutoCommCompiler.compile` to record
    each compiled program, then asserts the :mod:`repro.verify` checkers
    report zero error diagnostics on every one of them.  This turns the
    whole suite into a verifier workload: any test that compiles a program
    also proves the artifact passes static analysis.  Mark a test
    ``no_autoverify`` when it deliberately produces corrupt artifacts.
    """
    if request.node.get_closest_marker("no_autoverify"):
        yield
        return
    from repro.core import pipeline as _pipeline

    compiled = []
    original = _pipeline.AutoCommCompiler.compile

    def recording_compile(self, circuit, network, mapping=None, cache=None):
        program = original(self, circuit, network, mapping, cache=cache)
        compiled.append(program)
        return program

    _pipeline.AutoCommCompiler.compile = recording_compile
    try:
        yield
    finally:
        _pipeline.AutoCommCompiler.compile = original
    if not compiled:
        return
    from repro.verify import verify_program

    for program in compiled:
        report = verify_program(program)
        errors = report.errors
        assert not errors, (
            f"static verification of {program.name!r} "
            f"({program.compiler}, remap={program.remap}) found "
            f"{len(errors)} error diagnostics:\n"
            + "\n".join(f"  {diag}" for diag in errors))


@pytest.fixture
def small_network():
    """Three nodes with four data qubits and two comm qubits each."""
    return uniform_network(num_nodes=3, qubits_per_node=4)


@pytest.fixture
def two_node_network():
    """Two nodes with four data qubits each."""
    return uniform_network(num_nodes=2, qubits_per_node=4)


@pytest.fixture
def snippet_circuit():
    """The Figure 4 arithmetic walk-through circuit."""
    return arithmetic_snippet()


@pytest.fixture
def snippet_mapping():
    """The Figure 4 qubit-to-node layout (3 nodes)."""
    return QubitMapping(arithmetic_snippet_layout())


@pytest.fixture
def small_qft():
    """An eight-qubit QFT used across compiler tests."""
    return qft_circuit(8)


@pytest.fixture
def barrier_circuit():
    """A fixed random 12-qubit circuit with full and partial barriers.

    Barriers are the plan's zero-duration items, so this circuit
    exercises the ordering ties no benchmark program has.
    """
    base = random_circuit(12, 120, seed=0)
    rng = random.Random(0)
    circuit = Circuit(12)
    for gate in base.gates:
        if rng.random() < 0.1:
            if rng.random() < 0.3:
                circuit.barrier()
            else:
                circuit.barrier(sorted(rng.sample(range(12),
                                                  rng.randint(1, 11))))
        circuit.append(gate)
    return circuit
