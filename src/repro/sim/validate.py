"""Cross-validation of analytical schedules against deterministic execution.

:func:`validate_schedule` replays a compiled program's schedule through the
discrete-event engine with ``p_epr = 1.0`` and *ideal links* (link
capacities and per-link success probabilities ignored, per-link latencies
kept — exactly the analytical scheduler's assumptions) and compares the
resulting timing against the analytical
:class:`~repro.core.scheduling.ScheduleResult`:
the program latency, the per-op completion times and the number of covered
assignment items must all agree.  Both sides run one plan event loop
(:func:`repro.core.scheduling.run_plan`), so what this guards is the
engine's EPR source (deterministic preparations must equal the analytical
prep latency) and its booking (links and comm-qubit windows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.pipeline import CompiledProgram
from .engine import SimulationConfig, SimulationResult, simulate_program

__all__ = ["ValidationReport", "validate_schedule"]


@dataclass(frozen=True)
class ValidationReport:
    """Comparison of one analytical schedule with its deterministic replay."""

    name: str
    analytical_latency: float
    simulated_latency: float
    max_op_end_delta: float
    num_ops_analytical: int
    num_ops_simulated: int
    items_covered_analytical: int
    items_covered_simulated: int
    tolerance: float

    @property
    def latency_delta(self) -> float:
        return abs(self.simulated_latency - self.analytical_latency)

    @property
    def matches(self) -> bool:
        return (self.latency_delta <= self.tolerance
                and self.max_op_end_delta <= self.tolerance
                and self.num_ops_analytical == self.num_ops_simulated
                and self.items_covered_analytical == self.items_covered_simulated)

    def describe(self) -> str:
        status = "OK" if self.matches else "MISMATCH"
        return (f"{status}: {self.name} analytical={self.analytical_latency:.2f} "
                f"simulated={self.simulated_latency:.2f} "
                f"(max op delta {self.max_op_end_delta:.2e}, "
                f"{self.num_ops_simulated} ops)")


def validate_schedule(program: CompiledProgram, tolerance: float = 1e-6,
                      result: Optional[SimulationResult] = None) -> ValidationReport:
    """Replay ``program``'s schedule deterministically and compare timings.

    Args:
        program: a compiled program carrying ``assignment`` and ``schedule``.
        tolerance: maximum absolute timing disagreement accepted as a match.
        result: an existing deterministic simulation to compare (one is run
            when omitted).
    """
    if program.schedule is None:
        raise ValueError(f"program {program.name!r} has no schedule to validate")
    if result is None:
        result = simulate_program(program, SimulationConfig(p_epr=1.0,
                                                            ideal_links=True))

    analytical_ends: Dict[int, float] = {op.index: op.end
                                         for op in program.schedule.ops}
    simulated_ends: Dict[int, float] = {op.index: op.end for op in result.ops}
    max_delta = 0.0
    for index, end in analytical_ends.items():
        other = simulated_ends.get(index)
        if other is None:
            max_delta = float("inf")
            break
        max_delta = max(max_delta, abs(end - other))

    return ValidationReport(
        name=program.name,
        analytical_latency=program.schedule.latency,
        simulated_latency=result.latency,
        max_op_end_delta=max_delta,
        num_ops_analytical=len(program.schedule.ops),
        num_ops_simulated=len(result.ops),
        items_covered_analytical=program.schedule.num_scheduled_items(),
        items_covered_simulated=result.num_scheduled_items(),
        tolerance=tolerance,
    )
