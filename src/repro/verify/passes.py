"""The check-pass framework: registry, contexts and entry points.

A :class:`CheckPass` is one named static analysis over a compiled artifact.
Program-scope passes see a :class:`ProgramContext` (the compiled program
plus the schedule plan its analytical schedule was computed from) and must
not execute anything; trace-scope passes see a :class:`TraceContext` (one
finished simulation) and sanitize the event engine's output post-hoc.

Passes self-register through :func:`register_pass`; the registry is what
the CLI, the CI gate and the test fixture enumerate, so adding a checker is
one class definition away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Type

from ..core.pipeline import CompiledProgram
from ..core.scheduling import SchedulePlan
from ..hardware.network import QuantumNetwork
from .diagnostics import Diagnostic, Severity, VerificationReport

__all__ = ["CheckPass", "ProgramContext", "TraceContext", "register_pass",
           "registered_passes", "program_passes", "trace_passes",
           "verify_program", "sanitize_simulation"]

#: Small slack for floating-point time comparisons in causality checks.
TIME_TOLERANCE = 1e-9


@dataclass
class ProgramContext:
    """Everything a program-scope pass may inspect (never execute)."""

    program: CompiledProgram
    plan: SchedulePlan
    network: QuantumNetwork


@dataclass
class TraceContext:
    """One finished simulation plus the plan it replayed."""

    program: CompiledProgram
    plan: SchedulePlan
    network: QuantumNetwork
    #: A :class:`~repro.sim.engine.SimulationResult` (typed loosely to keep
    #: the static-verification import graph free of the execution engine).
    result: Any
    #: The :class:`~repro.sim.engine.SimulationConfig` of the run (``None``
    #: when unknown; capacity checks then use only the link model).
    config: Optional[Any] = None


class CheckPass:
    """Base class of one registered static check."""

    #: Stable kebab-case identifier (used in diagnostics and CLI output).
    id: str = ""
    #: One-line description of the invariant the pass checks.
    description: str = ""
    #: "program" or "trace".
    scope: str = "program"

    def run(self, context) -> List[Diagnostic]:  # pragma: no cover - abstract
        raise NotImplementedError


_REGISTRY: Dict[str, Type[CheckPass]] = {}


def register_pass(cls: Type[CheckPass]) -> Type[CheckPass]:
    """Class decorator adding a pass to the global registry."""
    if not cls.id:
        raise ValueError(f"check pass {cls.__name__} needs a non-empty id")
    if cls.scope not in ("program", "trace"):
        raise ValueError(f"check pass {cls.id!r} has unknown scope "
                         f"{cls.scope!r}")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate check pass id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def registered_passes() -> Dict[str, Type[CheckPass]]:
    """Copy of the full registry (id -> pass class)."""
    return dict(_REGISTRY)


def program_passes() -> List[CheckPass]:
    """Fresh instances of every program-scope pass, in id order."""
    return [cls() for _, cls in sorted(_REGISTRY.items())
            if cls.scope == "program"]


def trace_passes() -> List[CheckPass]:
    """Fresh instances of every trace-scope pass, in id order."""
    return [cls() for _, cls in sorted(_REGISTRY.items())
            if cls.scope == "trace"]


def _plan(program: CompiledProgram) -> SchedulePlan:
    # Imported lazily: repro.sim pulls in the execution engine, which a
    # purely static verification otherwise never needs.
    from ..sim.engine import plan_for_program
    return plan_for_program(program)


def _plan_failure_report(target: str, exc: Exception) -> VerificationReport:
    """A one-diagnostic report for artifacts too corrupt to even plan.

    The plan builders validate structural invariants of their own (e.g.
    one migration list per phase boundary); a verifier must turn such a
    rejection into a diagnostic, not a crash.
    """
    report = VerificationReport(target=target)
    report.checks_run.append("plan-construction")
    report.diagnostics.append(Diagnostic(
        checker="plan-construction", severity=Severity.ERROR,
        message=f"schedule plan could not be reconstructed: {exc}"))
    return report


def verify_program(program: CompiledProgram,
                   passes: Optional[Sequence[CheckPass]] = None
                   ) -> VerificationReport:
    """Run every program-scope check over one compiled program.

    Analyses the program's schedule plan, mappings, migrations, routes and
    analytical schedule without executing anything.  ``passes`` restricts
    the run to specific pass instances (mutation tests use this to isolate
    one checker).
    """
    try:
        plan = _plan(program)
        # Profiles price every consumed EPR pair: a pair the network cannot
        # prepare (identical endpoints) is rejected here.
        plan.op_profiles(program.network)
    except (ValueError, KeyError, IndexError) as exc:
        return _plan_failure_report(program.name, exc)
    context = ProgramContext(program=program, plan=plan,
                             network=program.network)
    report = VerificationReport(target=program.name)
    for check in (passes if passes is not None else program_passes()):
        report.checks_run.append(check.id)
        report.diagnostics.extend(check.run(context))
    return report


def sanitize_simulation(program: CompiledProgram, result,
                        config=None,
                        passes: Optional[Sequence[CheckPass]] = None
                        ) -> VerificationReport:
    """Sanitize one finished simulation's op records and trace post-hoc.

    A race detector for the event engine: double-booked comm qubits,
    link windows beyond capacity and causality violations are reported as
    error diagnostics.
    """
    try:
        plan = _plan(program)
    except (ValueError, KeyError, IndexError) as exc:
        return _plan_failure_report(f"{program.name} (trace)", exc)
    context = TraceContext(program=program, plan=plan,
                           network=program.network, result=result,
                           config=config)
    report = VerificationReport(target=f"{program.name} (trace)")
    for check in (passes if passes is not None else trace_passes()):
        report.checks_run.append(check.id)
        report.diagnostics.extend(check.run(context))
    return report
