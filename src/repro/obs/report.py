"""Exportable, versioned run reports.

A :class:`RunReport` is the JSON artifact one CLI invocation leaves behind:
what was run (``meta``), what the compiler produced
(:class:`~repro.core.metrics.CompilationMetrics` as ``metrics``), where the
compile spent its time (the span tree as ``spans``), and — for simulation
runs — the validation outcome, Monte-Carlo summary and the simulator's
metrics-registry snapshot under ``simulation``.  ``compare`` runs carry one
entry per contender under ``programs`` instead.

The format is versioned (:data:`RUN_REPORT_SCHEMA`) and round-trips
exactly: ``RunReport.load(path)`` on a saved report reconstructs an equal
object, which the CI perf-smoke job relies on when it uploads a report
artifact per run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .span import Span

__all__ = ["RUN_REPORT_SCHEMA", "RunReport", "report_for_program"]

#: Bump when the report layout changes incompatibly.
RUN_REPORT_SCHEMA = 1

_KINDS = ("compile", "simulate", "compare", "trace")


@dataclass
class RunReport:
    """One run's exportable record (see module docstring)."""

    kind: str
    meta: Dict[str, object] = field(default_factory=dict)
    #: ``CompilationMetrics.as_dict()`` of the primary program.
    metrics: Optional[Dict[str, object]] = None
    #: ``Span.as_dict()`` stage-timing tree of the primary compile.
    spans: Optional[Dict[str, object]] = None
    #: Simulation section: ``validation``, ``monte_carlo``, ``sim_metrics``.
    simulation: Optional[Dict[str, object]] = None
    #: Per-contender entries of a ``compare`` run.
    programs: Optional[List[Dict[str, object]]] = None
    schema: int = RUN_REPORT_SCHEMA

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown report kind {self.kind!r}; "
                             f"choose from {_KINDS}")

    # ---------------------------------------------------------- conversion

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"schema": self.schema, "kind": self.kind,
                                   "meta": self.meta}
        for key in ("metrics", "spans", "simulation", "programs"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunReport":
        schema = data.get("schema")
        if schema != RUN_REPORT_SCHEMA:
            raise ValueError(
                f"unsupported run-report schema {schema!r} "
                f"(this build reads schema {RUN_REPORT_SCHEMA})")
        return cls(kind=str(data["kind"]), meta=dict(data.get("meta", {})),
                   metrics=data.get("metrics"), spans=data.get("spans"),
                   simulation=data.get("simulation"),
                   programs=data.get("programs"), schema=int(schema))

    @classmethod
    def load(cls, path) -> "RunReport":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: run report must be a JSON object, "
                             f"got {type(data).__name__}")
        return cls.from_dict(data)

    # ------------------------------------------------------------- queries

    def span_tree(self) -> Optional[Span]:
        """The compile stage-timing tree as a :class:`Span` (or ``None``)."""
        if self.spans is None:
            return None
        return Span.from_dict(self.spans)

    def compilation_metrics(self):
        """Reconstruct the :class:`~repro.core.metrics.CompilationMetrics`."""
        if self.metrics is None:
            return None
        from ..core.metrics import CompilationMetrics
        return CompilationMetrics.from_dict(self.metrics)


def report_for_program(program, kind: str = "compile",
                       meta: Optional[Dict[str, object]] = None) -> RunReport:
    """Build a report from one :class:`~repro.core.pipeline.CompiledProgram`."""
    spans = program.spans
    base_meta: Dict[str, object] = {
        "name": program.name,
        "compiler": program.compiler,
        "num_qubits": program.circuit.num_qubits,
        "num_gates": len(program.circuit),
        "num_nodes": program.network.num_nodes,
        "topology": program.network.topology_kind,
        "remap": program.remap,
    }
    if meta:
        base_meta.update(meta)
    return RunReport(kind=kind, meta=base_meta,
                     metrics=program.metrics.as_dict(),
                     spans=spans.as_dict() if spans is not None else None)
