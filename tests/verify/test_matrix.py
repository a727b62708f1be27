"""CI-style gate: zero diagnostics across the benchmark matrix.

Every benchmark family x topology x remap mode must compile into an
artifact the static verifier finds nothing wrong with — the same matrix
``tools/verify_suite.py`` sweeps in CI, at a test-sized scale here.
"""

import pytest

from repro.circuits import BENCHMARK_FAMILIES, build_benchmark
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import SUPPORTED_TOPOLOGIES, apply_topology
from repro.sim import SimulationConfig, simulate_program
from repro.verify import sanitize_simulation, verify_program

NUM_QUBITS = 8
NUM_NODES = 4


def _compile(family, topology, remap):
    circuit, network = build_benchmark(family, NUM_QUBITS, NUM_NODES)
    if topology != "all-to-all":
        apply_topology(network, topology)
    config = (None if remap == "never"
              else AutoCommConfig(remap="bursts", phase_blocks=4,
                                  overlap=remap == "bursts+overlap"))
    return compile_autocomm(circuit, network, config=config)


@pytest.mark.parametrize("remap", ["never", "bursts", "bursts+overlap"])
@pytest.mark.parametrize("topology", SUPPORTED_TOPOLOGIES)
@pytest.mark.parametrize("family", sorted(BENCHMARK_FAMILIES))
def test_benchmark_matrix_verifies_clean(family, topology, remap):
    program = _compile(family, topology, remap)
    report = verify_program(program)
    assert report.clean, report.render()


@pytest.mark.parametrize("topology", ["line", "grid"])
@pytest.mark.parametrize("family", ["QFT", "BV"])
def test_benchmark_simulations_sanitize_clean(family, topology):
    program = _compile(family, topology, "bursts")
    config = SimulationConfig(ideal_links=True)
    result = simulate_program(program, config)
    report = sanitize_simulation(program, result, config)
    assert report.clean, report.render()
