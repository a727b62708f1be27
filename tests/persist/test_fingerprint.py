"""Compile fingerprints: determinism, input sensitivity, process stability."""

import dataclasses
import subprocess
import sys

from repro.circuits import qft_circuit
from repro.core import AutoCommConfig
from repro.hardware import apply_topology, uniform_network
from repro.ir import Circuit, Gate
from repro.partition import QubitMapping
from repro.persist import (compile_fingerprint, fingerprint_circuit,
                           fingerprint_config, fingerprint_network)

_STABILITY_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.circuits import qft_circuit
from repro.hardware import apply_topology, uniform_network
from repro.persist import compile_fingerprint
network = uniform_network(4, 3)
apply_topology(network, "ring")
print(compile_fingerprint(qft_circuit(10), network))
"""


def _inputs():
    network = uniform_network(4, 3)
    apply_topology(network, "ring")
    return qft_circuit(10), network


class TestDeterminism:
    def test_repeatable(self):
        circuit, network = _inputs()
        assert (compile_fingerprint(circuit, network)
                == compile_fingerprint(circuit, network))

    def test_fresh_objects_agree(self):
        first = compile_fingerprint(*_inputs())
        second = compile_fingerprint(*_inputs())
        assert first == second

    def test_default_config_is_explicit_default(self):
        circuit, network = _inputs()
        assert (compile_fingerprint(circuit, network)
                == compile_fingerprint(circuit, network,
                                       config=AutoCommConfig()))

    def test_stable_across_process_restarts(self):
        # PYTHONHASHSEED varies between interpreter runs; the fingerprint
        # must not (it would make the on-disk cache useless).
        import repro
        src = str(next(iter(repro.__path__)))[: -len("/repro")]
        snippet = _STABILITY_SNIPPET.format(src=src)
        runs = {
            subprocess.run([sys.executable, "-c", snippet],
                           capture_output=True, text=True,
                           check=True).stdout.strip()
            for _ in range(2)
        }
        assert len(runs) == 1
        assert runs == {compile_fingerprint(*_inputs())}


class TestSensitivity:
    def test_gate_params_matter(self):
        base = Circuit(2, [Gate("rz", (0,), (0.25,)), Gate("cx", (0, 1))])
        tweaked = Circuit(2, [Gate("rz", (0,), (0.50,)), Gate("cx", (0, 1))])
        assert fingerprint_circuit(base) != fingerprint_circuit(tweaked)

    def test_topology_matters(self):
        ring = uniform_network(4, 3)
        apply_topology(ring, "ring")
        line = uniform_network(4, 3)
        apply_topology(line, "line")
        assert fingerprint_network(ring) != fingerprint_network(line)

    def test_link_override_matters(self):
        plain = uniform_network(4, 3)
        apply_topology(plain, "ring")
        profiled = uniform_network(4, 3)
        apply_topology(profiled, "ring", link_profile="distance_scaled")
        assert fingerprint_network(plain) != fingerprint_network(profiled)

    def test_remap_mode_matters(self):
        assert (fingerprint_config(AutoCommConfig(remap="never"))
                != fingerprint_config(AutoCommConfig(remap="bursts")))

    def test_phase_blocks_matter(self):
        assert (fingerprint_config(AutoCommConfig(remap="bursts",
                                                  phase_blocks=4))
                != fingerprint_config(AutoCommConfig(remap="bursts",
                                                     phase_blocks=8)))

    def test_every_config_field_matters(self):
        base = AutoCommConfig()
        bump = {bool: lambda v: not v, int: lambda v: v + 1,
                str: lambda v: v + "-other"}
        for field in dataclasses.fields(base):
            value = getattr(base, field.name)
            changed = dataclasses.replace(
                base, **{field.name: bump[type(value)](value)})
            assert fingerprint_config(changed) != fingerprint_config(base), \
                field.name

    def test_mapping_matters(self):
        circuit, network = _inputs()
        default = compile_fingerprint(circuit, network)
        mapping = QubitMapping({q: (q + 1) % 4 for q in range(10)}, network)
        assert compile_fingerprint(circuit, network, mapping) != default

    def test_circuit_name_matters(self):
        circuit, network = _inputs()
        renamed = Circuit(circuit.num_qubits, list(circuit.gates),
                          name="other-name")
        assert (compile_fingerprint(circuit, network)
                != compile_fingerprint(renamed, network))
