"""Discrete-event execution simulation of compiled distributed programs.

While :mod:`repro.core.scheduling` *estimates* program latency analytically,
this subsystem *executes* a :class:`~repro.core.pipeline.CompiledProgram` on
the modelled hardware:

* :mod:`repro.sim.engine` — the event queue and execution engine, plus the
  Monte-Carlo driver;
* :mod:`repro.sim.epr_process` — stochastic EPR-pair generation with a
  configurable per-attempt success probability and retry latency;
* :mod:`repro.sim.trace` — timestamped execution traces, per-link occupancy
  and latency-distribution statistics;
* :mod:`repro.sim.validate` — asserts that deterministic simulation
  (``p_epr = 1.0``) reproduces the analytical schedule exactly.

Quick start::

    from repro import compile_autocomm
    from repro.circuits import qft_circuit
    from repro.hardware import uniform_network
    from repro.sim import SimulationConfig, run_monte_carlo, validate_schedule

    program = compile_autocomm(qft_circuit(20), uniform_network(4, 5))
    print(validate_schedule(program).describe())          # deterministic check
    mc = run_monte_carlo(program, SimulationConfig(p_epr=0.5, trials=50, seed=7))
    print(mc.summary())                                   # latency distribution
"""

from .engine import (
    ExecutionEngine,
    MonteCarloResult,
    SimulatedOp,
    SimulationConfig,
    SimulationResult,
    plan_for_program,
    run_monte_carlo,
    simulate_program,
)
from .epr_process import EPRProcess, EPRSample
from .trace import LatencyDistribution, TraceEvent, TraceRecorder
from .validate import ValidationReport, validate_schedule

__all__ = [
    "ExecutionEngine",
    "MonteCarloResult",
    "SimulatedOp",
    "SimulationConfig",
    "SimulationResult",
    "run_monte_carlo",
    "simulate_program",
    "plan_for_program",
    "EPRProcess",
    "EPRSample",
    "LatencyDistribution",
    "TraceEvent",
    "TraceRecorder",
    "ValidationReport",
    "validate_schedule",
]
