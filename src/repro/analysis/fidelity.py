"""Program fidelity estimation for compiled distributed programs.

The paper motivates communication reduction with fidelity: remote operations
are up to 40x less accurate than local gates and the long runtime of
communication exposes the state to decoherence.  This module provides the
standard multiplicative error model used in DQC compiler evaluations so the
effect of AutoComm's savings can be expressed as an end-to-end fidelity
estimate:

``F = (1 - e_epr)^#comm * (1 - e_2q)^#2q * (1 - e_1q)^#1q * exp(-latency / T_coh)``

where ``#comm`` counts remote communications (EPR pairs consumed), the gate
counts are local-gate counts of the compiled circuit, and the final factor
models decoherence over the scheduled program latency.  The default error
rates follow the ranges quoted in the paper's introduction (remote operations
roughly an order of magnitude noisier than local two-qubit gates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..core.pipeline import CompiledProgram

__all__ = ["ErrorModel", "DEFAULT_ERROR_MODEL", "estimate_fidelity",
           "fidelity_breakdown"]


@dataclass(frozen=True)
class ErrorModel:
    """Error rates and coherence budget for fidelity estimation.

    Attributes:
        epr_error: infidelity contributed by one remote communication (EPR
            pair generation + purification + protocol operations).
        two_qubit_error: local two-qubit gate error rate.
        one_qubit_error: local single-qubit gate error rate.
        coherence_time: decoherence time constant, in the same CX-normalised
            units as the latency model (``exp(-latency / coherence_time)``).
    """

    epr_error: float = 0.02
    two_qubit_error: float = 0.002
    one_qubit_error: float = 0.0002
    coherence_time: float = 50_000.0

    def __post_init__(self) -> None:
        for name in ("epr_error", "two_qubit_error", "one_qubit_error"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.coherence_time <= 0:
            raise ValueError("coherence_time must be positive")


DEFAULT_ERROR_MODEL = ErrorModel()


def fidelity_breakdown(program: CompiledProgram,
                       model: ErrorModel = DEFAULT_ERROR_MODEL) -> Dict[str, float]:
    """Per-source fidelity factors of a compiled program.

    Inter-phase qubit migrations of a dynamically remapped program each
    consume one EPR pair (a teleport), so they count as communications;
    local-gate classification follows each phase's own mapping (a static
    program is one phase).
    """
    num_comm = program.metrics.total_comm + program.metrics.migration_moves
    num_2q_local = 0
    num_1q = 0
    for phase in program.phases:
        mapping = phase.mapping
        for gate in phase.aggregation.circuit:
            if gate.is_multi_qubit and not mapping.is_remote(gate):
                num_2q_local += 1
            elif gate.is_single_qubit:
                num_1q += 1
    communication = (1.0 - model.epr_error) ** num_comm
    local_2q = (1.0 - model.two_qubit_error) ** num_2q_local
    local_1q = (1.0 - model.one_qubit_error) ** num_1q
    decoherence = math.exp(-program.metrics.latency / model.coherence_time)
    return {
        "communication": communication,
        "local_two_qubit": local_2q,
        "local_single_qubit": local_1q,
        "decoherence": decoherence,
        "total": communication * local_2q * local_1q * decoherence,
    }


def estimate_fidelity(program: CompiledProgram,
                      model: ErrorModel = DEFAULT_ERROR_MODEL) -> float:
    """End-to-end fidelity estimate of a compiled program."""
    return fidelity_breakdown(program, model)["total"]
