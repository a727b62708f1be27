"""A static program is the one-phase case past the compiler.

Every ``CompiledProgram`` stores its phase list, which replay,
verification, analysis and persistence read.  These tests pin that for the
static shapes the AutoComm pipeline does not produce itself — the sparse
and GP-TP baselines — and check that the one plan lookup,
``plan_for_program``, returns the very plan object the compile's winning
schedule came from.
"""

import pytest

import repro.core.scheduling as scheduling
from repro.baselines import compile_gp_tp, compile_sparse
from repro.circuits import BENCHMARK_FAMILIES, build_benchmark
from repro.core import AutoCommConfig, CompiledPhase, compile_autocomm
from repro.hardware import apply_topology
from repro.persist import (dumps_program, loads_program, program_from_payload,
                           program_to_payload)
from repro.sim import (SimulationConfig, plan_for_program, run_monte_carlo,
                       simulate_program, validate_schedule)
from repro.verify import verify_program

BASELINES = {"sparse": compile_sparse, "gp-tp": compile_gp_tp}


def _benchmark(family, topology, num_qubits=12, nodes=4):
    circuit, network = build_benchmark(family, num_qubits, nodes)
    if topology != "all-to-all":
        apply_topology(network, topology)
    return circuit, network


@pytest.mark.parametrize("topology", ["all-to-all", "line"])
@pytest.mark.parametrize("family", sorted(BENCHMARK_FAMILIES))
@pytest.mark.parametrize("compiler", sorted(BASELINES))
def test_baseline_program_verifies_replays_and_round_trips(
        compiler, family, topology, assert_static_shape):
    program = BASELINES[compiler](*_benchmark(family, topology))
    assert_static_shape(program)

    report = verify_program(program)
    assert report.clean, report.render()

    replay = simulate_program(program)
    assert replay.latency == program.schedule.latency
    assert ([(op.index, op.end) for op in replay.ops]
            == [(op.index, op.end) for op in program.schedule.ops])
    assert validate_schedule(program, tolerance=0.0, result=replay).matches

    data = dumps_program(program)
    loaded = loads_program(data)
    assert dumps_program(loaded) == data

    config = SimulationConfig(p_epr=0.5, seed=11, trials=2,
                              record_trace=False, record_metrics=False)
    fresh = run_monte_carlo(program, config)
    again = run_monte_carlo(loaded, config)
    assert again.trial_seeds == fresh.trial_seeds
    assert again.latencies == fresh.latencies
    assert again.epr_attempts == fresh.epr_attempts


def _winning_plans(monkeypatch):
    """Record ``id(schedule result) -> plan`` for every scheduled candidate."""
    plans = {}
    execute = scheduling._execute_plan

    def recording(plan, network):
        result = execute(plan, network)
        plans[id(result)] = plan
        return result

    monkeypatch.setattr(scheduling, "_execute_plan", recording)
    return plans


COMPILES = {
    "static": lambda c, n: compile_autocomm(c, n),
    "greedy": lambda c, n: compile_autocomm(
        c, n, config=AutoCommConfig(schedule_strategy="greedy")),
    "sparse": compile_sparse,
    "remap": lambda c, n: compile_autocomm(
        c, n, config=AutoCommConfig(remap="bursts", phase_blocks=4)),
    "remap+overlap": lambda c, n: compile_autocomm(
        c, n, config=AutoCommConfig(remap="bursts", phase_blocks=4,
                                    overlap=True)),
}


@pytest.mark.parametrize("label", sorted(COMPILES))
def test_plan_for_program_is_the_winning_plan(label, monkeypatch):
    plans = _winning_plans(monkeypatch)
    program = COMPILES[label](*_benchmark("QFT", "line", num_qubits=16))
    winner = plans[id(program.schedule)]
    assert plan_for_program(program) is winner
    assert winner.mode == program.schedule.mode
    assert winner.overlap == program.schedule.overlap


def test_static_program_is_its_one_phase(assert_static_shape):
    program = compile_autocomm(*_benchmark("QFT", "all-to-all"))
    assert_static_shape(program)
    (phase,) = program.phases
    assert isinstance(phase, CompiledPhase)
    assert phase.assignment.aggregation is program.aggregation
    assert len(phase.blocks) == len(program.blocks)
    assert all(a is b for a, b in zip(phase.blocks, program.blocks))


def test_phased_program_blocks_flatten_its_phases():
    program = compile_autocomm(*_benchmark("QFT", "line", num_qubits=16),
                               config=AutoCommConfig(remap="bursts",
                                                     phase_blocks=4))
    for shaped in (program, loads_program(dumps_program(program))):
        assert len(shaped.phases) > 1
        assert shaped.remap == "bursts"
        assert len(shaped.migrations) == len(shaped.phases) - 1
        assert shaped.phases[0].mapping is shaped.mapping
        flattened = [block for phase in shaped.phases
                     for block in phase.blocks]
        assert len(shaped.blocks) == len(flattened)
        assert all(a is b for a, b in zip(shaped.blocks, flattened))


def test_static_payload_without_an_assignment_is_rejected():
    payload = program_to_payload(
        compile_autocomm(*_benchmark("BV", "all-to-all")))
    payload["assignment"] = None
    with pytest.raises(ValueError, match="without an assignment"):
        program_from_payload(payload)
