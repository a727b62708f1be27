"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import COMPILERS, build_parser, main
from repro.circuits import qft_circuit
from repro.ir import from_qasm, to_qasm


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "qft.qasm"
    path.write_text(to_qasm(qft_circuit(8)))
    return path


class TestParser:
    def test_compile_arguments(self):
        args = build_parser().parse_args(["compile", "prog.qasm", "--nodes", "4"])
        assert args.command == "compile"
        assert args.nodes == 4
        assert args.compiler == "autocomm"

    def test_compiler_choices_cover_registry(self):
        parser = build_parser()
        for name in COMPILERS:
            args = parser.parse_args(["compile", "p.qasm", "--nodes", "2",
                                      "--compiler", name])
            assert args.compiler == name

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_compiler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "p.qasm", "--nodes", "2",
                                       "--compiler", "magic"])


class TestCompileCommand:
    def test_basic_report(self, qasm_file, capsys):
        exit_code = main(["compile", str(qasm_file), "--nodes", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "communications" in captured
        assert "latency" in captured

    def test_fidelity_flag(self, qasm_file, capsys):
        main(["compile", str(qasm_file), "--nodes", "2", "--fidelity"])
        assert "estimated fidelity" in capsys.readouterr().out

    def test_alternative_compiler(self, qasm_file, capsys):
        main(["compile", str(qasm_file), "--nodes", "2", "--compiler", "sparse"])
        assert "sparse-cat" in capsys.readouterr().out

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compile", str(tmp_path / "nope.qasm"), "--nodes", "2"])

    def test_explicit_qubits_per_node(self, qasm_file, capsys):
        exit_code = main(["compile", str(qasm_file), "--nodes", "2",
                          "--qubits-per-node", "6"])
        assert exit_code == 0


class TestCompareCommand:
    def test_all_compilers_listed(self, qasm_file, capsys):
        exit_code = main(["compare", str(qasm_file), "--nodes", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in COMPILERS:
            assert name in out
        assert "sim_mean" not in out

    def test_monte_carlo_columns(self, qasm_file, capsys):
        exit_code = main(["compare", str(qasm_file), "--nodes", "2",
                          "--trials", "4", "--p-epr", "0.6", "--seed", "7"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "sim_mean" in out
        assert "sim_p95" in out

    def test_workers_flag_leaves_output_identical(self, qasm_file, capsys):
        argv = ["compare", str(qasm_file), "--nodes", "2",
                "--trials", "4", "--p-epr", "0.6", "--seed", "7"]
        main(argv)
        sequential = capsys.readouterr().out
        main(argv + ["--workers", "2"])
        parallel = capsys.readouterr().out
        assert parallel == sequential

    @pytest.mark.parametrize("flags", [
        ["--p-epr", "0"],
        ["--trials", "-1"],
        ["--workers", "0"],
    ])
    def test_invalid_arguments_rejected(self, qasm_file, flags):
        with pytest.raises(SystemExit):
            main(["compare", str(qasm_file), "--nodes", "2", *flags])


class TestSimulateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate", "p.qasm", "--nodes", "2"])
        assert args.command == "simulate"
        assert args.p_epr == 1.0
        assert args.trials == 1
        assert args.seed == 0

    def test_deterministic_run_validates(self, qasm_file, capsys):
        exit_code = main(["simulate", str(qasm_file), "--nodes", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "simulated_latency" in out
        assert "yes" in out

    def test_stochastic_run_prints_distribution(self, qasm_file, capsys):
        exit_code = main(["simulate", str(qasm_file), "--nodes", "2",
                          "--p-epr", "0.5", "--trials", "5", "--seed", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "sim_mean" in out
        assert "slowdown" in out

    def test_seed_makes_runs_reproducible(self, qasm_file, capsys):
        argv = ["simulate", str(qasm_file), "--nodes", "2",
                "--p-epr", "0.4", "--trials", "4", "--seed", "11"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_timeline_and_trace_flags(self, qasm_file, capsys):
        exit_code = main(["simulate", str(qasm_file), "--nodes", "2",
                          "--timeline", "--trace", "5"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "node 0:" in out
        assert "legend:" in out
        assert "epr-start" in out

    def test_alternative_compiler(self, qasm_file, capsys):
        exit_code = main(["simulate", str(qasm_file), "--nodes", "2",
                          "--compiler", "sparse"])
        assert exit_code == 0

    @pytest.mark.parametrize("flags", [
        ["--p-epr", "0"],
        ["--p-epr", "1.5"],
        ["--trials", "0"],
        ["--retry-latency", "-1", "--p-epr", "0.5"],
        ["--link-capacity", "0"],
        ["--workers", "0"],
    ])
    def test_invalid_simulation_arguments_rejected(self, qasm_file, flags):
        with pytest.raises(SystemExit):
            main(["simulate", str(qasm_file), "--nodes", "2", *flags])

    def test_workers_flag_leaves_output_identical(self, qasm_file, capsys):
        argv = ["simulate", str(qasm_file), "--nodes", "2",
                "--p-epr", "0.5", "--trials", "6", "--seed", "3"]
        main(argv)
        sequential = capsys.readouterr().out
        main(argv + ["--workers", "3"])
        parallel = capsys.readouterr().out
        assert parallel == sequential


class TestProfileCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile", "p.qasm", "--nodes", "2"])
        assert args.command == "profile"
        assert args.repeat == 3
        assert args.top == 15
        assert args.simulate_trials == 0

    def test_compile_profile_report(self, qasm_file, capsys):
        exit_code = main(["profile", str(qasm_file), "--nodes", "2",
                          "--repeat", "2", "--top", "5"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "compile median [ms]" in out
        assert "hotspots by cumulative time" in out
        assert "commutation cache hits/misses" in out

    def test_simulation_trials_included(self, qasm_file, capsys):
        exit_code = main(["profile", str(qasm_file), "--nodes", "2",
                          "--repeat", "1", "--simulate-trials", "3",
                          "--p-epr", "0.5"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "simulate 3 trials median [ms]" in out

    def test_json_output(self, qasm_file, tmp_path, capsys):
        import json

        target = tmp_path / "BENCH_compiler.json"
        exit_code = main(["profile", str(qasm_file), "--nodes", "2",
                          "--repeat", "2", "--json", str(target)])
        assert exit_code == 0
        payload = json.loads(target.read_text())
        assert payload["command"] == "profile"
        assert payload["compile_s"]["median"] > 0
        assert len(payload["compile_s"]["runs"]) == 2
        assert payload["hotspots"]
        assert {"function", "ncalls", "tottime_s", "cumtime_s"} <= \
            set(payload["hotspots"][0])

    @pytest.mark.parametrize("flags", [
        ["--repeat", "0"],
        ["--p-epr", "0"],
        ["--p-epr", "1.5"],
    ])
    def test_invalid_arguments_rejected(self, qasm_file, flags):
        with pytest.raises(SystemExit):
            main(["profile", str(qasm_file), "--nodes", "2", *flags])

    def test_zero_workers_rejected_like_simulate(self, qasm_file):
        # profile used to pass --workers 0 on to the Monte-Carlo runner,
        # which died with a ValueError traceback.
        messages = []
        for command in (["simulate"], ["profile", "--simulate-trials", "3"]):
            with pytest.raises(SystemExit) as excinfo:
                main([command[0], str(qasm_file), "--nodes", "2",
                      *command[1:], "--workers", "0"])
            messages.append(str(excinfo.value))
        assert messages == ["error: --workers must be >= 1, got 0"] * 2


class TestGenerateCommand:
    def test_generate_to_stdout(self, capsys):
        exit_code = main(["generate", "bv", "--qubits", "10"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "OPENQASM 2.0" in out
        circuit = from_qasm(out)
        assert circuit.num_qubits == 10

    def test_generate_to_file(self, tmp_path, capsys):
        target = tmp_path / "qaoa.qasm"
        exit_code = main(["generate", "qaoa", "--qubits", "12",
                          "--output", str(target)])
        assert exit_code == 0
        assert target.exists()
        assert from_qasm(target.read_text()).num_qubits == 12

    def test_generated_qft_roundtrips_through_compile(self, tmp_path, capsys):
        target = tmp_path / "qft.qasm"
        main(["generate", "qft", "--qubits", "8", "--output", str(target)])
        exit_code = main(["compile", str(target), "--nodes", "2"])
        assert exit_code == 0

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "grover", "--qubits", "8"])


class TestTopologyFlags:
    @pytest.fixture
    def wide_qasm(self, tmp_path):
        path = tmp_path / "qft16.qasm"
        path.write_text(to_qasm(qft_circuit(16)))
        return path

    def test_topology_arguments_parsed(self):
        args = build_parser().parse_args(
            ["compile", "p.qasm", "--nodes", "4", "--topology", "line",
             "--swap-overhead", "0.5"])
        assert args.topology == "line"
        assert args.swap_overhead == 0.5
        assert args.grid_columns is None

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "p.qasm", "--nodes", "4",
                                       "--topology", "torus"])

    def test_compile_reports_physical_epr_pairs(self, wide_qasm, capsys):
        exit_code = main(["compile", str(wide_qasm), "--nodes", "4",
                          "--topology", "line"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "topology" in captured
        assert "physical EPR pairs" in captured

    def test_all_to_all_report_unchanged(self, wide_qasm, capsys):
        exit_code = main(["compile", str(wide_qasm), "--nodes", "4"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "physical EPR pairs" not in captured

    def test_simulate_line_topology_validates(self, wide_qasm, capsys):
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "line"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "yes" in captured  # deterministic replay validated
        assert "total_epr_pairs" in captured

    def test_simulate_grid_with_columns(self, wide_qasm, capsys):
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "grid", "--grid-columns", "2",
                          "--p-epr", "0.7", "--trials", "3", "--seed", "5"])
        assert exit_code == 0
        assert "sim_mean" in capsys.readouterr().out

    def test_profile_accepts_topology(self, wide_qasm, capsys, tmp_path):
        import json

        out = tmp_path / "bench.json"
        exit_code = main(["profile", str(wide_qasm), "--nodes", "4",
                          "--topology", "ring", "--repeat", "1",
                          "--json", str(out)])
        assert exit_code == 0
        assert json.loads(out.read_text())["topology"] == "ring"

    def test_grid_columns_without_grid_topology_rejected(self, wide_qasm):
        with pytest.raises(SystemExit, match="grid"):
            main(["compile", str(wide_qasm), "--nodes", "4",
                  "--topology", "line", "--grid-columns", "2"])

    def test_simulate_reports_executed_pair_count(self, wide_qasm, capsys):
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "line"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "sim_epr_pairs" in out


class TestLinkModelFlags:
    @pytest.fixture
    def wide_qasm(self, tmp_path):
        path = tmp_path / "qft16.qasm"
        path.write_text(to_qasm(qft_circuit(16)))
        return path

    @pytest.fixture
    def spec_file(self, tmp_path):
        import json

        path = tmp_path / "links.json"
        path.write_text(json.dumps({
            "default": {"t_epr": 12.0},
            "links": {"1-2": {"t_epr": 36.0, "p_epr": 0.8, "capacity": 1}},
        }))
        return path

    def test_link_arguments_parsed(self):
        args = build_parser().parse_args(
            ["compile", "p.qasm", "--nodes", "4", "--topology", "line",
             "--link-spec", "links.json"])
        assert str(args.link_spec) == "links.json"
        assert args.link_profile is None

    def test_unknown_link_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "p.qasm", "--nodes", "4",
                                       "--link-profile", "magic"])

    def test_compile_reports_heterogeneous_links(self, wide_qasm, spec_file,
                                                 capsys):
        exit_code = main(["compile", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--link-spec",
                          str(spec_file)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "heterogeneous (1 link override)" in out
        assert "EPR latency volume" in out

    def test_link_profile_preset(self, wide_qasm, capsys):
        exit_code = main(["compile", str(wide_qasm), "--nodes", "4",
                          "--topology", "star", "--link-profile",
                          "noisy_spine"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "heterogeneous" in out

    def test_simulate_link_spec_validates_and_studies(self, wide_qasm,
                                                      spec_file, capsys):
        # A capacity- and loss-bearing spec triggers the Monte-Carlo study
        # even at p_epr = 1.0, and the ideal-links validation still passes.
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--link-spec",
                          str(spec_file), "--seed", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "yes" in out
        assert "sim_mean" in out

    def test_link_spec_conflicts_with_link_capacity(self, wide_qasm,
                                                    spec_file):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["simulate", str(wide_qasm), "--nodes", "4",
                  "--topology", "line", "--link-spec", str(spec_file),
                  "--link-capacity", "2"])

    def test_link_spec_conflicts_with_link_profile(self, wide_qasm,
                                                   spec_file):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["compile", str(wide_qasm), "--nodes", "4",
                  "--topology", "line", "--link-spec", str(spec_file),
                  "--link-profile", "noisy_spine"])

    def test_missing_spec_file_errors(self, wide_qasm, tmp_path):
        with pytest.raises(SystemExit, match="no such link-spec"):
            main(["compile", str(wide_qasm), "--nodes", "4",
                  "--topology", "line",
                  "--link-spec", str(tmp_path / "nope.json")])

    def test_invalid_spec_file_errors(self, wide_qasm, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["compile", str(wide_qasm), "--nodes", "4",
                  "--topology", "line", "--link-spec", str(bad)])

    def test_spec_link_outside_topology_errors(self, wide_qasm, tmp_path):
        import json

        spec = tmp_path / "offgrid.json"
        spec.write_text(json.dumps({"links": {"0-3": {"t_epr": 24.0}}}))
        with pytest.raises(SystemExit, match="not a link"):
            main(["compile", str(wide_qasm), "--nodes", "4",
                  "--topology", "line", "--link-spec", str(spec)])

    def test_link_capacity_alone_still_works(self, wide_qasm, capsys):
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--link-capacity", "1",
                          "--seed", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "sim_mean" in out


class TestRemapFlags:
    @pytest.fixture
    def wide_qasm(self, tmp_path):
        path = tmp_path / "qft12.qasm"
        path.write_text(to_qasm(qft_circuit(12)))
        return path

    def test_remap_arguments_parsed(self):
        args = build_parser().parse_args(
            ["compile", "p.qasm", "--nodes", "4", "--remap", "bursts",
             "--phase-blocks", "3"])
        assert args.remap == "bursts"
        assert args.phase_blocks == 3

    def test_remap_defaults(self):
        for command in ("compile", "compare", "simulate", "profile"):
            args = build_parser().parse_args(
                [command, "p.qasm", "--nodes", "4"])
            assert args.remap == "never"
            assert args.phase_blocks == 8

    def test_unknown_remap_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "p.qasm", "--nodes", "4",
                                       "--remap", "sometimes"])

    def test_compile_reports_remap_rows(self, wide_qasm, capsys):
        exit_code = main(["compile", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--remap", "bursts",
                          "--phase-blocks", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "autocomm-remap" in out
        assert "phases" in out
        assert "migration moves" in out
        assert "migration latency" in out
        assert "EPR latency volume" in out

    def test_compile_remap_never_report_unchanged(self, wide_qasm, capsys):
        main(["compile", str(wide_qasm), "--nodes", "4", "--topology", "line"])
        plain = capsys.readouterr().out
        main(["compile", str(wide_qasm), "--nodes", "4", "--topology", "line",
              "--remap", "never"])
        explicit = capsys.readouterr().out
        assert explicit == plain
        assert "migration" not in plain

    def test_remap_rejected_for_other_compilers(self, wide_qasm):
        with pytest.raises(SystemExit, match="only applies to the autocomm"):
            main(["compile", str(wide_qasm), "--nodes", "4",
                  "--remap", "bursts", "--compiler", "sparse"])

    def test_bad_phase_blocks_rejected(self, wide_qasm):
        with pytest.raises(SystemExit, match="--phase-blocks"):
            main(["compile", str(wide_qasm), "--nodes", "4",
                  "--remap", "bursts", "--phase-blocks", "0"])

    def test_compare_remap_adds_contender_row(self, wide_qasm, capsys):
        exit_code = main(["compare", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--remap", "bursts"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "autocomm-remap" in out
        assert "epr_latency" in out
        assert "migrations" in out

    def test_simulate_remap_validates(self, wide_qasm, capsys):
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--remap", "bursts",
                          "--phase-blocks", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "yes" in out

    def test_profile_accepts_remap(self, wide_qasm, capsys, tmp_path):
        report = tmp_path / "profile.json"
        exit_code = main(["profile", str(wide_qasm), "--nodes", "4",
                          "--remap", "bursts", "--repeat", "1",
                          "--json", str(report)])
        assert exit_code == 0
        import json
        assert json.loads(report.read_text())["remap"] == "bursts"


class TestCompareFidelity:
    def test_fidelity_column(self, qasm_file, capsys):
        exit_code = main(["compare", str(qasm_file), "--nodes", "2",
                          "--fidelity"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "fidelity" in out

    def test_no_fidelity_column_by_default(self, qasm_file, capsys):
        main(["compare", str(qasm_file), "--nodes", "2"])
        out = capsys.readouterr().out
        assert "fidelity" not in out


class TestRunReportFlag:
    def test_report_argument_parsed(self):
        for command in ("compile", "compare", "simulate"):
            args = build_parser().parse_args(
                [command, "p.qasm", "--nodes", "2", "--report", "out.json"])
            assert str(args.report) == "out.json"

    def test_compile_report_roundtrips(self, qasm_file, tmp_path, capsys):
        from repro.obs import RunReport

        target = tmp_path / "compile.json"
        exit_code = main(["compile", str(qasm_file), "--nodes", "2",
                          "--report", str(target)])
        assert exit_code == 0
        assert f"wrote {target}" in capsys.readouterr().out
        report = RunReport.load(target)
        assert report.kind == "compile"
        assert report.meta["qasm"] == str(qasm_file)
        assert report.metrics is not None
        assert report.span_tree().find("aggregation") is not None
        # Saved bytes reload into an equal object.
        assert RunReport.from_dict(report.as_dict()) == report

    def test_compare_report_lists_all_contenders(self, qasm_file, tmp_path,
                                                 capsys):
        from repro.obs import RunReport

        target = tmp_path / "compare.json"
        exit_code = main(["compare", str(qasm_file), "--nodes", "2",
                          "--report", str(target)])
        assert exit_code == 0
        report = RunReport.load(target)
        assert report.kind == "compare"
        assert {entry["compiler"] for entry in report.programs} \
            >= set(COMPILERS)

    def test_compare_report_carries_every_compilers_spans(
            self, qasm_file, tmp_path, capsys):
        from repro.obs import RunReport
        from repro.obs.span import Span

        target = tmp_path / "compare.json"
        main(["compare", str(qasm_file), "--nodes", "2",
              "--report", str(target)])
        # Every contender compiles under AutoComm's mapping, so only
        # AutoComm's own tree has an oee-partition stage.
        for entry in RunReport.load(target).programs:
            assert entry["spans"] is not None, entry["compiler"]
            stages = {span.name
                      for span in Span.from_dict(entry["spans"]).walk()}
            assert {"decompose", "scheduling"} <= stages, entry["compiler"]

    def test_simulate_report_includes_simulation_section(self, qasm_file,
                                                         tmp_path, capsys):
        from repro.obs import RunReport

        target = tmp_path / "simulate.json"
        exit_code = main(["simulate", str(qasm_file), "--nodes", "2",
                          "--p-epr", "0.5", "--trials", "3", "--seed", "1",
                          "--report", str(target)])
        assert exit_code == 0
        report = RunReport.load(target)
        assert report.kind == "simulate"
        validation = report.simulation["validation"]
        assert validation["matches"] is True
        assert validation["analytical_latency"] > 0
        assert report.simulation["monte_carlo"]["trials"] == 3.0
        sim_metrics = report.simulation["sim_metrics"]
        assert sim_metrics["counters"]["sim.trials"] == 3


class TestTraceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace", "p.qasm", "--nodes", "2"])
        assert args.command == "trace"
        assert args.p_epr == 1.0
        assert args.seed == 0
        assert args.out is None
        assert args.no_sim is False

    def test_writes_valid_trace_next_to_input(self, qasm_file, capsys):
        import json

        from repro.obs import validate_trace_events

        exit_code = main(["trace", str(qasm_file), "--nodes", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        target = qasm_file.with_name(qasm_file.stem + ".trace.json")
        assert target.exists()
        assert str(target) in out
        events = json.loads(target.read_text())["traceEvents"]
        assert events
        assert validate_trace_events(events) == []
        # Compile spans and simulated ops are both present.
        assert {e["pid"] for e in events} >= {1, 2}

    def test_explicit_out_and_no_sim(self, qasm_file, tmp_path, capsys):
        import json

        target = tmp_path / "compile-only.trace.json"
        exit_code = main(["trace", str(qasm_file), "--nodes", "2",
                          "--no-sim", "--out", str(target)])
        assert exit_code == 0
        events = json.loads(target.read_text())["traceEvents"]
        assert {e["pid"] for e in events} == {1}  # compile spans only

    def test_remap_scenario_validates(self, qasm_file, tmp_path, capsys):
        exit_code = main(["trace", str(qasm_file), "--nodes", "4",
                          "--qubits-per-node", "2", "--topology", "line",
                          "--remap", "bursts", "--phase-blocks", "3",
                          "--out", str(tmp_path / "remap.trace.json")])
        assert exit_code == 0

    def test_invalid_p_epr_rejected(self, qasm_file):
        with pytest.raises(SystemExit):
            main(["trace", str(qasm_file), "--nodes", "2", "--p-epr", "0"])


class TestTraceOutFlag:
    def test_simulate_trace_out_writes_jsonl(self, qasm_file, tmp_path,
                                             capsys):
        import json

        target = tmp_path / "events.jsonl"
        exit_code = main(["simulate", str(qasm_file), "--nodes", "2",
                          "--trace-out", str(target)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert f"wrote {target}" in out
        events = [json.loads(line)
                  for line in target.read_text().splitlines()]
        assert events
        assert {"time", "kind", "index", "nodes", "detail"} <= set(events[0])
        assert any(event["kind"] == "epr-start" for event in events)


class TestProfileStageRows:
    def test_stage_rows_and_tree_in_report(self, qasm_file, capsys):
        exit_code = main(["profile", str(qasm_file), "--nodes", "2",
                          "--repeat", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "stage aggregation [ms]" in out
        assert "stage scheduling [ms]" in out
        assert "compile stage tree (profiled run):" in out

    def test_json_payload_has_versioned_stage_tree(self, qasm_file, tmp_path,
                                                   capsys):
        import json

        target = tmp_path / "bench.json"
        exit_code = main(["profile", str(qasm_file), "--nodes", "2",
                          "--repeat", "1", "--json", str(target)])
        assert exit_code == 0
        payload = json.loads(target.read_text())
        # Existing keys are untouched; the stage tree is additive.
        assert payload["command"] == "profile"
        assert payload["compile_s"]["median"] > 0
        assert payload["schema"] == 1
        stages = payload["stages"]
        assert stages["name"].startswith("compile/")
        assert {child["name"] for child in stages["children"]} \
            >= {"aggregation", "assignment", "scheduling"}

    def test_profile_ignores_the_compile_cache(self, qasm_file, tmp_path,
                                               monkeypatch, capsys):
        """Every profiled compile is cold, even with REPRO_CACHE_DIR set."""
        import json

        from repro.persist import CACHE_DIR_ENV

        def names(span):
            yield span["name"]
            for child in span["children"]:
                yield from names(child)

        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        target = tmp_path / "bench.json"
        assert main(["profile", str(qasm_file), "--nodes", "2",
                     "--repeat", "2", "--json", str(target)]) == 0
        stages = json.loads(target.read_text())["stages"]
        assert "cache-lookup" not in set(names(stages))
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    @pytest.mark.parametrize("flag", [["--cache-dir", "c"], ["--no-cache"]])
    def test_profile_has_no_cache_flags(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "p.qasm", "--nodes", "2",
                                       *flag])


class TestIdealLinksFlag:
    @pytest.fixture
    def wide_qasm(self, tmp_path):
        path = tmp_path / "qft12.qasm"
        path.write_text(to_qasm(qft_circuit(12)))
        return path

    @pytest.fixture
    def capped_spec(self, tmp_path):
        import json

        path = tmp_path / "capped.json"
        path.write_text(json.dumps(
            {"default": {"capacity": 1, "p_epr": 0.5}}))
        return path

    def test_ideal_links_parsed(self):
        args = build_parser().parse_args(
            ["simulate", "p.qasm", "--nodes", "4", "--ideal-links"])
        assert args.ideal_links is True
        args = build_parser().parse_args(["simulate", "p.qasm", "--nodes", "4"])
        assert args.ideal_links is False

    def test_ideal_links_match_analytical(self, wide_qasm, capped_spec,
                                          capsys):
        """Under --ideal-links a capacity/loss-constrained study collapses
        onto the analytical schedule."""
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--link-spec",
                          str(capped_spec), "--trials", "2", "--seed", "5",
                          "--ideal-links"])
        out = capsys.readouterr().out
        assert exit_code == 0
        row = [line for line in out.splitlines() if "yes" in line]
        assert row, out
        # sim_mean equals the analytical latency when links are idealised:
        # columns are latency, simulated_latency, p_epr, sim_mean, ...
        import re
        numbers = re.findall(r"\d+\.\d+", row[0])
        assert float(numbers[3]) == pytest.approx(float(numbers[0]))

    def test_constrained_study_differs_without_flag(self, wide_qasm,
                                                    capped_spec, capsys):
        exit_code = main(["simulate", str(wide_qasm), "--nodes", "4",
                          "--topology", "line", "--link-spec",
                          str(capped_spec), "--trials", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "sim_mean" in out


class TestRangeChecks:
    """Out-of-range counts stop with one error line before any work runs."""

    @pytest.mark.parametrize("command", [
        ["compile"], ["compare"], ["simulate"], ["profile"], ["trace"],
        ["verify"],
    ])
    def test_zero_nodes_rejected(self, qasm_file, command):
        # Used to raise ZeroDivisionError while sizing the network.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, str(qasm_file), "--nodes", "0"])
        assert str(excinfo.value) == "error: --nodes must be >= 1, got 0"

    def test_zero_nodes_rejected_by_cache_warm(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "warm", "--cache-dir", str(tmp_path / "c"),
                  "--nodes", "0"])
        assert str(excinfo.value) == "error: --nodes must be >= 1, got 0"
        assert not (tmp_path / "c").exists()

    def test_zero_qubits_per_node_rejected(self, qasm_file):
        # Used to be read as "fit the program".
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", str(qasm_file), "--nodes", "2",
                  "--qubits-per-node", "0"])
        assert str(excinfo.value) == \
            "error: --qubits-per-node must be >= 1, got 0"

    @pytest.mark.parametrize("command", [
        ["generate", "qft"], ["cache", "warm"],
    ])
    def test_zero_qubits_rejected(self, tmp_path, command):
        # Used to show a ValueError traceback.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--qubits", "0",
                  *(["--cache-dir", str(tmp_path)] if "cache" in command
                    else [])])
        assert str(excinfo.value) == "error: --qubits must be >= 1, got 0"

    @pytest.mark.parametrize("family,qubits,minimum", [
        ("bv", 1, "BV needs at least two qubits"),
        ("qaoa", 1, "QAOA needs at least two qubits"),
        ("mctr", 2, "MCTR needs at least 3 qubits"),
        ("rca", 3, "need at least 4 qubits"),
        ("uccsd", 3, "UCCSD needs at least 4 qubits"),
    ])
    @pytest.mark.parametrize("command", ["generate", "warm"])
    def test_below_family_minimum_rejected(self, tmp_path, command, family,
                                           qubits, minimum):
        # Used to show the builder's ValueError traceback.
        argv = (["generate", family] if command == "generate" else
                ["cache", "warm", "--families", family,
                 "--cache-dir", str(tmp_path / "c")])
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--qubits", str(qubits)])
        message = str(excinfo.value)
        assert message.startswith(f"error: --qubits {qubits} is too few "
                                  f"for {family.upper()}: ")
        assert minimum in message
        assert not (tmp_path / "c").exists()

    def test_negative_trace_rejected(self, qasm_file):
        # Used to print all but the last event, then "... N+1 more events".
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(qasm_file), "--nodes", "2", "--trace", "-1"])
        assert str(excinfo.value) == "error: --trace must be >= 0, got -1"

    def test_zero_trace_still_accepted(self, qasm_file, capsys):
        assert main(["simulate", str(qasm_file), "--nodes", "2",
                     "--trace", "0"]) == 0
        assert "more events" in capsys.readouterr().out

    def test_zero_top_rejected(self, qasm_file):
        # Used to print one hotspot.
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", str(qasm_file), "--nodes", "2", "--top", "0"])
        assert str(excinfo.value) == "error: --top must be >= 1, got 0"


# Parsed namespaces pinned per subcommand: the defaults of each command,
# then argument vectors that pass every flag at least once.
_MACHINE = {"nodes": 4, "qubits_per_node": None, "comm_qubits": 2}
_PROGRAM = {"qasm": Path("p.qasm"), **_MACHINE}
_TOPOLOGY = {"topology": "all-to-all", "swap_overhead": 1.0,
             "grid_columns": None, "link_spec": None, "link_profile": None}
_REMAP = {"remap": "never", "phase_blocks": 8, "overlap": False,
          "phase_sizing": "fixed"}
_CACHE = {"cache_dir": None, "no_cache": False}
_TAILS = {"report": None, "verify": False}
_MACHINE_FLAGS = ["--qubits-per-node", "5", "--comm-qubits", "3",
                  "--topology", "grid", "--swap-overhead", "2.5",
                  "--grid-columns", "2", "--link-spec", "links.json",
                  "--link-profile", "distance_scaled", "--remap", "bursts",
                  "--phase-blocks", "4", "--overlap",
                  "--phase-sizing", "auto"]
_MACHINE_VALUES = {"qubits_per_node": 5, "comm_qubits": 3,
                   "topology": "grid", "swap_overhead": 2.5,
                   "grid_columns": 2, "link_spec": Path("links.json"),
                   "link_profile": "distance_scaled", "remap": "bursts",
                   "phase_blocks": 4, "overlap": True,
                   "phase_sizing": "auto"}
_CACHE_FLAGS = ["--cache-dir", "c", "--no-cache"]
_CACHE_VALUES = {"cache_dir": Path("c"), "no_cache": True}
_TAIL_FLAGS = ["--report", "r.json", "--verify"]
_TAIL_VALUES = {"report": Path("r.json"), "verify": True}

_DEFAULTS = {
    "compile": {"command": "compile", **_PROGRAM, "compiler": "autocomm",
                "fidelity": False, **_TOPOLOGY, **_REMAP, **_CACHE,
                **_TAILS},
    "compare": {"command": "compare", **_PROGRAM, "fidelity": False,
                "trials": 0, "p_epr": 1.0, "seed": 0, "workers": 1,
                **_TOPOLOGY, **_REMAP, **_CACHE, **_TAILS},
    "simulate": {"command": "simulate", **_PROGRAM, "compiler": "autocomm",
                 "p_epr": 1.0, "retry_latency": None, "trials": 1,
                 "seed": 0, "workers": 1, "link_capacity": None,
                 "timeline": False, "ideal_links": False, "trace": None,
                 "trace_out": None, **_TOPOLOGY, **_REMAP, **_CACHE,
                 **_TAILS},
    "profile": {"command": "profile", **_PROGRAM, "compiler": "autocomm",
                "repeat": 3, "top": 15, "simulate_trials": 0, "p_epr": 0.5,
                "seed": 0, "workers": 1, "json": None, **_TOPOLOGY,
                **_REMAP},
    "trace": {"command": "trace", **_PROGRAM, "compiler": "autocomm",
              "out": None, "p_epr": 1.0, "seed": 0, "no_sim": False,
              **_TOPOLOGY, **_REMAP},
    "verify": {"command": "verify", **_PROGRAM, "qasm": None, "nodes": None,
               "compiler": "autocomm", "simulate": False, "trace": None,
               "json": None, "strict": False, "list_checks": False,
               **_TOPOLOGY, **_REMAP, **_CACHE},
    "cache stats": {"command": "cache", "cache_command": "stats",
                    "cache_dir": None},
    "cache clear": {"command": "cache", "cache_command": "clear",
                    "cache_dir": None},
    "cache warm": {"command": "cache", "cache_command": "warm",
                   "cache_dir": None, "families": None, "qubits": 12,
                   **_MACHINE, **_TOPOLOGY, **_REMAP},
    "generate": {"command": "generate", "family": "qft", "qubits": 8,
                 "output": None},
}

_PARSE_CASES = [
    (["compile", "p.qasm", "--nodes", "4"], "compile", {}),
    (["compile", "p.qasm", "--nodes", "3", "--compiler", "sparse",
      "--fidelity", *_MACHINE_FLAGS, *_CACHE_FLAGS, *_TAIL_FLAGS],
     "compile", {"nodes": 3, "compiler": "sparse", "fidelity": True,
                 **_MACHINE_VALUES, **_CACHE_VALUES, **_TAIL_VALUES}),
    (["compare", "p.qasm", "--nodes", "4"], "compare", {}),
    (["compare", "p.qasm", "--nodes", "3", "--fidelity", "--trials", "5",
      "--p-epr", "0.25", "--seed", "9", "--workers", "2", *_MACHINE_FLAGS,
      *_CACHE_FLAGS, *_TAIL_FLAGS],
     "compare", {"nodes": 3, "fidelity": True, "trials": 5, "p_epr": 0.25,
                 "seed": 9, "workers": 2, **_MACHINE_VALUES,
                 **_CACHE_VALUES, **_TAIL_VALUES}),
    (["simulate", "p.qasm", "--nodes", "4"], "simulate", {}),
    (["simulate", "p.qasm", "--nodes", "3", "--compiler", "cat-only",
      "--p-epr", "0.75", "--retry-latency", "2.5", "--trials", "6",
      "--seed", "11", "--workers", "3", "--link-capacity", "2",
      "--timeline", "--ideal-links", "--trace", "7", "--trace-out", "t.jsonl",
      *_MACHINE_FLAGS, *_CACHE_FLAGS, *_TAIL_FLAGS],
     "simulate", {"nodes": 3, "compiler": "cat-only", "p_epr": 0.75,
                  "retry_latency": 2.5, "trials": 6, "seed": 11,
                  "workers": 3, "link_capacity": 2, "timeline": True,
                  "ideal_links": True, "trace": 7,
                  "trace_out": Path("t.jsonl"), **_MACHINE_VALUES,
                  **_CACHE_VALUES, **_TAIL_VALUES}),
    (["profile", "p.qasm", "--nodes", "4"], "profile", {}),
    (["profile", "p.qasm", "--nodes", "3", "--compiler", "gp-tp",
      "--repeat", "2", "--top", "4", "--simulate-trials", "8",
      "--p-epr", "0.9", "--seed", "5", "--workers", "2", "--json", "b.json",
      *_MACHINE_FLAGS],
     "profile", {"nodes": 3, "compiler": "gp-tp", "repeat": 2, "top": 4,
                 "simulate_trials": 8, "p_epr": 0.9, "seed": 5,
                 "workers": 2, "json": Path("b.json"), **_MACHINE_VALUES}),
    (["trace", "p.qasm", "--nodes", "4"], "trace", {}),
    (["trace", "p.qasm", "--nodes", "3", "--compiler", "no-commute",
      "--out", "o.trace.json", "--p-epr", "0.5", "--seed", "3", "--no-sim",
      *_MACHINE_FLAGS],
     "trace", {"nodes": 3, "compiler": "no-commute",
               "out": Path("o.trace.json"), "p_epr": 0.5, "seed": 3,
               "no_sim": True, **_MACHINE_VALUES}),
    (["verify"], "verify", {}),
    (["verify", "p.qasm", "--nodes", "3", "--compiler", "plain-schedule",
      "--simulate", "--trace", "t.json", "--json", "v.json", "--strict",
      "--list-checks", *_MACHINE_FLAGS, *_CACHE_FLAGS],
     "verify", {"qasm": Path("p.qasm"), "nodes": 3,
                "compiler": "plain-schedule", "simulate": True,
                "trace": Path("t.json"), "json": Path("v.json"),
                "strict": True, "list_checks": True, **_MACHINE_VALUES,
                **_CACHE_VALUES}),
    (["cache", "stats"], "cache stats", {}),
    (["cache", "stats", "--cache-dir", "c"], "cache stats",
     {"cache_dir": Path("c")}),
    (["cache", "clear"], "cache clear", {}),
    (["cache", "clear", "--cache-dir", "c"], "cache clear",
     {"cache_dir": Path("c")}),
    (["cache", "warm"], "cache warm", {}),
    (["cache", "warm", "--cache-dir", "c", "--families", "QFT,BV",
      "--qubits", "10", "--nodes", "5", *_MACHINE_FLAGS],
     "cache warm", {"cache_dir": Path("c"), "families": "QFT,BV",
                    "qubits": 10, "nodes": 5, **_MACHINE_VALUES}),
    (["generate", "qft", "--qubits", "8"], "generate", {}),
    (["generate", "bv", "--qubits", "6", "--output", "b.qasm"], "generate",
     {"family": "bv", "qubits": 6, "output": Path("b.qasm")}),
]


class TestParseParity:
    """Every subcommand keeps its dests, defaults, types and choices."""

    @pytest.mark.parametrize(
        "argv,command,changed", _PARSE_CASES,
        ids=[f"{command}-{'flags' if changed else 'defaults'}"
             for _, command, changed in _PARSE_CASES])
    def test_namespace(self, argv, command, changed):
        expected = {**_DEFAULTS[command], **changed}
        parsed = vars(build_parser().parse_args(argv))
        assert parsed == expected
        assert ({key: type(value) for key, value in parsed.items()}
                == {key: type(value) for key, value in expected.items()})

    @pytest.mark.parametrize("argv,message", [
        (["compile"], "the following arguments are required: qasm, --nodes"),
        (["compare", "p.qasm"], "the following arguments are required: "
                                "--nodes"),
        (["simulate"], "the following arguments are required: qasm, "
                       "--nodes"),
        (["profile", "p.qasm"], "the following arguments are required: "
                                "--nodes"),
        (["trace"], "the following arguments are required: qasm, --nodes"),
        (["compare", "p.qasm", "--nodes", "2", "--compiler", "sparse"],
         "unrecognized arguments: --compiler sparse"),
        (["trace", "p.qasm", "--nodes", "2", "--workers", "2"],
         "unrecognized arguments: --workers 2"),
        (["cache", "warm", "--compiler", "sparse"],
         "unrecognized arguments: --compiler sparse"),
        (["cache", "stats", "--no-cache"],
         "unrecognized arguments: --no-cache"),
        (["simulate", "p.qasm", "--nodes", "two"],
         "argument --nodes: invalid int value: 'two'"),
        (["profile", "p.qasm", "--nodes", "2", "--p-epr", "half"],
         "argument --p-epr: invalid float value: 'half'"),
    ])
    def test_error_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: {message}")
