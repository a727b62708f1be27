"""Tests of the Table 2 benchmark, run at smoke scale (seconds in total)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import table2bench as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _report_value(lines, name):
    for line in lines:
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1])
    raise AssertionError(f"{name} missing from the report")


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result, lines = bench.run_workload(workload, seed=3, seconds=0.0,
                                       trace=False, scale="smoke",
                                       out_dir=None)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _report_value(lines, "failed_frac") == 0
    assert _report_value(lines, "outputs_changed") == 0


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    result, _ = bench.run_workload(workload, seed=3, seconds=0.0, trace=True,
                                   scale="smoke", out_dir=None)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["verify.errors"] == 0
    assert metrics["trace.spans"] > 0
    assert metrics["sim.trial_ms"] > 0
    if workload == "remap-line":
        assert metrics["pipeline.remap_ms"] > 0
        assert metrics["pipeline.phases"] > 0


def test_spans_record_parent_and_operation():
    run = bench.WorkloadRun("qft-aggregate", 3, 0.0, True, "smoke")
    run.run()
    spans = run.log.spans
    assert all(s["end"] >= s["start"] for s in spans)
    layered = [s for s in spans if s["name"] == "aggregation"]
    assert layered
    for span in layered:
        parent = spans[span["parent"]]
        assert parent["name"].startswith("compile/")
        assert parent["run"] == span["run"]


def test_trial_that_raises_counts_as_failed_and_run_continues(monkeypatch):
    real = bench.simulate_program
    stochastic_calls = []

    def flaky(program, config):
        if config.p_epr < 1.0:
            stochastic_calls.append(config.seed)
            if len(stochastic_calls) == 2:
                raise ValueError("node 11: no free slot in [56.9, 84.3)")
        return real(program, config)

    monkeypatch.setattr(bench, "simulate_program", flaky)
    result, lines = bench.run_workload("mc-table2", seed=5, seconds=0.0,
                                       trace=False, scale="smoke",
                                       out_dir=None)
    attempted = result["attempted"]
    assert len(stochastic_calls) == attempted > 2
    assert result["failed"] == 1
    assert result["correct"]
    assert _report_value(lines, "failed_frac") == pytest.approx(1 / attempted)
    assert result["metrics"]["success_frac"]["value"] == pytest.approx(
        1 - 1 / attempted)
    assert any("no free slot" in line for line in lines)


def test_seed_fixes_order_and_trial_seeds():
    def inputs(seed):
        run = bench.WorkloadRun("remap-line", seed, 0.0, False, "smoke")
        return ([p.id for p in run.order],
                [run.rng.getrandbits(63) for _ in range(4)])

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_expected_outputs_cover_every_program():
    expected = bench.load_expected()
    for scale in bench.SCALES:
        for workload in bench.WORKLOADS:
            for program in bench.workload_programs(workload, scale):
                assert set(expected[program.id]) == {"total_comm", "latency",
                                                     "sha256"}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qft-aggregate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
