"""Canonical serialization: payload round-trips, writers, schema versioning."""

import gzip
import json
from dataclasses import replace

import pytest

from repro.circuits import build_benchmark, qft_circuit
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import (DEFAULT_LATENCY, apply_topology, load_link_spec,
                            uniform_network)
from repro.ir import Circuit, Gate
from repro.partition import QubitMapping
from repro.persist import (SCHEMA_VERSION, canonical_json,
                           circuit_from_payload, circuit_to_payload,
                           dumps_program, load_program, loads_program,
                           mapping_from_payload, mapping_to_payload,
                           network_from_payload, network_to_payload,
                           program_from_payload, program_to_payload,
                           save_program)


def _compiled(num_qubits=10, nodes=4, topology="all-to-all", remap="never"):
    circuit, _ = build_benchmark("QFT", num_qubits, nodes)
    network = uniform_network(nodes, -(-num_qubits // nodes))
    if topology != "all-to-all":
        apply_topology(network, topology)
    config = (AutoCommConfig(remap="bursts", phase_blocks=4,
                             overlap=remap.endswith("+overlap"))
              if remap.startswith("bursts") else None)
    return compile_autocomm(circuit, network, config=config)


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_insertion_order_irrelevant(self):
        first = {"x": 1, "y": 2}
        second = {"y": 2, "x": 1}
        assert canonical_json(first) == canonical_json(second)


class TestCircuitCodec:
    def test_round_trip(self):
        circuit = Circuit(3, [Gate("h", (0,)), Gate("rz", (1,), (0.25,)),
                              Gate("cx", (0, 2))], name="trip")
        loaded = circuit_from_payload(circuit_to_payload(circuit))
        assert loaded.num_qubits == 3
        assert loaded.name == "trip"
        assert [(g.name, tuple(g.qubits), tuple(g.params))
                for g in loaded.gates] == \
               [(g.name, tuple(g.qubits), tuple(g.params))
                for g in circuit.gates]

    def test_payload_is_canonical(self):
        circuit = qft_circuit(4)
        assert (canonical_json(circuit_to_payload(circuit))
                == canonical_json(circuit_to_payload(qft_circuit(4))))


class TestNetworkCodec:
    @pytest.mark.parametrize("topology", ["line", "ring", "star", "grid"])
    def test_topology_round_trip(self, topology):
        network = uniform_network(5, 3)
        apply_topology(network, topology, swap_overhead=1.5)
        loaded = network_from_payload(network_to_payload(network))
        assert loaded.num_nodes == network.num_nodes
        assert loaded.topology_kind == network.topology_kind
        assert loaded.swap_overhead == network.swap_overhead
        for a in range(5):
            for b in range(a + 1, 5):
                assert loaded.epr_latency(a, b) == network.epr_latency(a, b)
                assert (loaded.routing.route(a, b)
                        == network.routing.route(a, b))

    def test_link_profile_round_trip(self):
        network = uniform_network(4, 3)
        apply_topology(network, "ring", link_profile="distance_scaled")
        loaded = network_from_payload(network_to_payload(network))
        assert loaded.heterogeneous_links
        assert loaded.link_model.as_dict() == network.link_model.as_dict()

    def test_link_spec_round_trip(self, tmp_path):
        spec = tmp_path / "links.json"
        spec.write_text(json.dumps({
            "default": {"t_epr": 10.0, "capacity": 2},
            "links": {"0-1": {"t_epr": 3.0, "p_epr": 0.5}},
        }))
        model = load_link_spec(spec, DEFAULT_LATENCY.t_epr)
        network = uniform_network(3, 4)
        apply_topology(network, "line", link_model=model)
        loaded = network_from_payload(network_to_payload(network))
        assert loaded.link_model.as_dict() == network.link_model.as_dict()


class TestMappingCodec:
    def test_round_trip(self):
        network = uniform_network(3, 4)
        mapping = QubitMapping({q: q % 3 for q in range(9)}, network)
        loaded = mapping_from_payload(mapping_to_payload(mapping), network)
        assert all(loaded.node_of(q) == mapping.node_of(q) for q in range(9))


class TestProgramCodec:
    @pytest.mark.parametrize("remap", ["never", "bursts", "bursts+overlap"])
    def test_payload_round_trip(self, remap):
        program = _compiled(remap=remap)
        loaded = program_from_payload(program_to_payload(program))
        assert loaded.metrics.as_dict() == program.metrics.as_dict()
        assert loaded.compiler == program.compiler
        assert loaded.remap == program.remap
        assert len(loaded.circuit) == len(program.circuit)
        assert loaded.schedule.overlap == program.schedule.overlap
        assert (loaded.schedule.boundary_bubble
                == program.schedule.boundary_bubble)

    def test_schema_version_enforced(self):
        payload = program_to_payload(_compiled(num_qubits=6, nodes=2))
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            program_from_payload(payload)

    def test_assignment_blocks_share_identity_after_load(
            self, assert_static_shape):
        loaded = program_from_payload(program_to_payload(_compiled()))
        assert_static_shape(loaded)
        (phase,) = loaded.phases
        assert phase.assignment.aggregation is loaded.aggregation
        assert all(a is b for a, b in zip(phase.assignment.blocks,
                                          loaded.aggregation.blocks))
        assert all(a is b for a, b in zip(loaded.blocks, phase.blocks))

    def test_bytes_are_deterministic(self):
        program = _compiled()
        data = dumps_program(program)
        assert data == dumps_program(program)
        # Re-serializing the loaded program reproduces the exact bytes:
        # nothing in the payload depends on object identity or set order.
        assert dumps_program(loads_program(data)) == data

    def test_gzip_payload_is_canonical_json(self):
        data = dumps_program(_compiled(num_qubits=6, nodes=2))
        payload = json.loads(gzip.decompress(data).decode("utf-8"))
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "compiled-program"

    def test_save_load_binary(self, tmp_path):
        program = _compiled(num_qubits=8, nodes=3, topology="ring")
        path = tmp_path / "program.rpz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.metrics.as_dict() == program.metrics.as_dict()

    def test_save_load_json(self, tmp_path):
        program = _compiled(num_qubits=8, nodes=3)
        path = tmp_path / "program.json"
        save_program(program, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == SCHEMA_VERSION
        loaded = load_program(path)
        assert loaded.metrics.as_dict() == program.metrics.as_dict()

    def test_spans_round_trip(self):
        program = _compiled(num_qubits=6, nodes=2)
        loaded = program_from_payload(program_to_payload(program))
        assert loaded.spans is not None
        assert loaded.spans.as_dict() == program.spans.as_dict()


class TestProgramShape:
    """The loader refuses payloads whose shape fields disagree: a static
    program (``migrations`` null) is ``blocks_mode`` "assignment" with
    ``remap`` "never", a phased one "phases" with "bursts"."""

    @pytest.mark.parametrize("remap", ["never", "bursts"])
    def test_explicit_blocks_mode_rejected(self, remap):
        payload = program_to_payload(_compiled(num_qubits=8, nodes=4,
                                               topology="line", remap=remap))
        payload["blocks_mode"] = "explicit"
        with pytest.raises(ValueError, match="disagree with migrations"):
            program_from_payload(payload)

    @pytest.mark.parametrize("remap, blocks_mode", [("never", "phases"),
                                                    ("bursts", "assignment")])
    def test_blocks_mode_disagreeing_with_migrations_rejected(self, remap,
                                                              blocks_mode):
        payload = program_to_payload(_compiled(num_qubits=8, nodes=4,
                                               topology="line", remap=remap))
        payload["blocks_mode"] = blocks_mode
        with pytest.raises(ValueError, match="disagree with migrations"):
            program_from_payload(payload)

    def test_bursts_remap_without_migrations_rejected(self):
        payload = program_to_payload(_compiled(num_qubits=6, nodes=2))
        payload["remap"] = "bursts"
        with pytest.raises(ValueError, match="disagree with migrations"):
            program_from_payload(payload)

    @pytest.mark.no_autoverify  # detaches the phase's mapping on purpose
    def test_writer_refuses_a_static_program_off_its_own_phase(self):
        program = _compiled(num_qubits=6, nodes=2)
        detached = QubitMapping(program.mapping.as_dict(), program.network)
        program.phases[0] = replace(program.phases[0], mapping=detached)
        with pytest.raises(ValueError, match="must be one phase"):
            program_to_payload(program)
