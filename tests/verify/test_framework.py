"""The check-pass framework: registry, reports and clean verification."""

import json

import pytest

from repro.circuits import qft_circuit
from repro.core import AutoCommConfig, compile_autocomm
from repro.hardware import (DEFAULT_LATENCY, LinkModel, apply_topology,
                            uniform_network)
from repro.sim import SimulationConfig, simulate_program
from repro.verify import (CheckPass, Diagnostic, Location, Severity,
                          VerificationReport, program_passes, register_pass,
                          registered_passes, sanitize_simulation,
                          trace_passes, verify_program)

EXPECTED_PROGRAM_PASSES = [
    "booking-feasibility", "dag-acyclic", "item-coverage",
    "mapping-wellformed", "migration-legality", "route-validity",
    "schedule-causality",
]
EXPECTED_TRACE_PASSES = [
    "trace-causality", "trace-comm-qubits", "trace-link-capacity",
]


def _compiled(topology="all-to-all", remap="never", num_qubits=10, nodes=3,
              link_model=None):
    circuit = qft_circuit(num_qubits)
    network = uniform_network(nodes, -(-num_qubits // nodes))
    if topology != "all-to-all":
        apply_topology(network, topology, link_model=link_model)
    config = (AutoCommConfig(remap="bursts", phase_blocks=4)
              if remap == "bursts" else None)
    return compile_autocomm(circuit, network, config=config)


class TestRegistry:
    def test_all_passes_registered(self):
        registry = registered_passes()
        assert sorted(registry) == sorted(EXPECTED_PROGRAM_PASSES
                                          + EXPECTED_TRACE_PASSES)

    def test_program_passes_sorted_and_scoped(self):
        instances = program_passes()
        assert [p.id for p in instances] == EXPECTED_PROGRAM_PASSES
        assert all(p.scope == "program" for p in instances)

    def test_trace_passes_sorted_and_scoped(self):
        instances = trace_passes()
        assert [p.id for p in instances] == EXPECTED_TRACE_PASSES
        assert all(p.scope == "trace" for p in instances)

    def test_every_pass_has_description(self):
        for cls in registered_passes().values():
            assert cls.description

    def test_register_rejects_empty_id(self):
        class Nameless(CheckPass):
            id = ""

        with pytest.raises(ValueError, match="non-empty id"):
            register_pass(Nameless)

    def test_register_rejects_unknown_scope(self):
        class Odd(CheckPass):
            id = "odd-scope"
            scope = "galactic"

        with pytest.raises(ValueError, match="unknown scope"):
            register_pass(Odd)

    def test_register_rejects_duplicate_id(self):
        class Clone(CheckPass):
            id = "dag-acyclic"
            scope = "program"

        with pytest.raises(ValueError, match="duplicate"):
            register_pass(Clone)


class TestDiagnostics:
    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR.label == "error"

    def test_location_describe_and_dict(self):
        loc = Location(op=3, phase=1, link=(0, 2))
        assert loc.describe() == "op 3, phase 1, link 0-2"
        assert loc.as_dict() == {"op": 3, "phase": 1, "link": [0, 2]}
        assert Location().describe() == ""

    def test_diagnostic_str(self):
        diag = Diagnostic(checker="dag-acyclic", severity=Severity.ERROR,
                          message="boom", location=Location(op=7))
        assert str(diag) == "error: dag-acyclic: boom [op 7]"

    def test_report_partitions_and_merge(self):
        err = Diagnostic("a", Severity.ERROR, "e")
        warn = Diagnostic("b", Severity.WARNING, "w")
        report = VerificationReport(target="x", diagnostics=[err],
                                    checks_run=["a"])
        other = VerificationReport(target="y", diagnostics=[warn],
                                   checks_run=["a", "b"])
        report.merge(other)
        assert report.errors == [err]
        assert report.warnings == [warn]
        assert not report.ok and not report.clean
        assert report.checks_run == ["a", "b"]
        assert report.by_checker("b") == [warn]
        data = report.as_dict()
        assert data["ok"] is False
        assert len(data["diagnostics"]) == 2

    def test_report_render_mentions_counts(self):
        report = VerificationReport(target="prog", checks_run=["a", "b"])
        assert "2 checks, 0 diagnostics" in report.render()
        assert report.ok and report.clean


class TestCleanPrograms:
    @pytest.mark.parametrize("topology", ["all-to-all", "line", "grid"])
    def test_static_compile_is_clean(self, topology):
        report = verify_program(_compiled(topology=topology))
        assert report.checks_run == EXPECTED_PROGRAM_PASSES
        assert report.clean, report.render()

    def test_phased_compile_is_clean(self):
        report = verify_program(_compiled(topology="ring", remap="bursts"))
        assert report.clean, report.render()

    def test_pass_subset_restricts_run(self):
        program = _compiled()
        only = [p for p in program_passes() if p.id == "dag-acyclic"]
        report = verify_program(program, passes=only)
        assert report.checks_run == ["dag-acyclic"]

    def test_deterministic_simulation_sanitizes_clean(self):
        program = _compiled(topology="line", remap="bursts")
        config = SimulationConfig(ideal_links=True)
        result = simulate_program(program, config)
        report = sanitize_simulation(program, result, config)
        assert report.checks_run == EXPECTED_TRACE_PASSES
        assert report.clean, report.render()

    def test_capacity_limited_simulation_sanitizes_clean(self):
        model = LinkModel.uniform_model(DEFAULT_LATENCY.t_epr, capacity=1)
        program = _compiled(topology="line", link_model=model)
        config = SimulationConfig()
        result = simulate_program(program, config)
        report = sanitize_simulation(program, result, config)
        assert report.clean, report.render()


class TestCli:
    def _write_qasm(self, tmp_path):
        from repro.ir import to_qasm
        path = tmp_path / "prog.qasm"
        path.write_text(to_qasm(qft_circuit(8)))
        return path

    def test_verify_subcommand_clean(self, tmp_path, capsys):
        from repro.cli import main
        qasm = self._write_qasm(tmp_path)
        out_json = tmp_path / "report.json"
        code = main(["verify", str(qasm), "--nodes", "3",
                     "--topology", "line", "--simulate",
                     "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        payload = json.loads(out_json.read_text())
        assert payload["report"]["ok"] is True
        assert payload["report"]["clean"] is True

    def test_verify_list_checks(self, capsys):
        from repro.cli import main
        assert main(["verify", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for check_id in EXPECTED_PROGRAM_PASSES + EXPECTED_TRACE_PASSES:
            assert check_id in out

    def test_verify_requires_input(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["verify"])

    def test_verify_trace_file(self, tmp_path, capsys):
        from repro.cli import main
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "ts": 0, "dur": 2, "pid": 1, "tid": 1, "name": "a"},
        ]}))
        assert main(["verify", "--trace", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([
            {"ph": "X", "ts": -4, "dur": 1, "pid": 1, "tid": 1, "name": "b"},
        ]))
        assert main(["verify", "--trace", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "1 violations" in out

    def test_compile_verify_flag(self, tmp_path, capsys):
        from repro.cli import main
        qasm = self._write_qasm(tmp_path)
        code = main(["compile", str(qasm), "--nodes", "3", "--verify"])
        assert code == 0
        assert "verify" in capsys.readouterr().out

    def test_simulate_verify_flag(self, tmp_path, capsys):
        from repro.cli import main
        qasm = self._write_qasm(tmp_path)
        code = main(["simulate", str(qasm), "--nodes", "3",
                     "--topology", "ring", "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "10 checks" in out
