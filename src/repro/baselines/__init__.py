"""Baseline and ablation compilers used in the paper's evaluation.

Every compiler here runs through :func:`repro.core.pipeline.compile_program`,
the one compile path that also prices AutoComm: a baseline supplies only its
block-forming step, so all compilers are measured by the same metrics block
and carry the same span tree (``decompose``, ``oee-partition``,
``scheduling``).

* :func:`compile_sparse` — Ferrari-style per-gate Cat-Comm (main baseline,
  Table 3).
* :func:`compile_gp_tp` — graph-partition / qubit-movement compiler with
  TP-Comm swaps (Figure 16).
* :func:`compile_cat_only` — AutoComm with the hybrid assignment disabled
  (Figure 17b ablation, Diadamo-style controlled-unitary compiler).
* :func:`compile_no_commute` — AutoComm with commutation-free aggregation
  (Figure 17a ablation).
* :func:`compile_plain_schedule` — AutoComm with the plain greedy schedule
  (Figure 17c ablation).
"""

from __future__ import annotations

from typing import Optional

from ..core.pipeline import AutoCommCompiler, AutoCommConfig, CompiledProgram
from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from ..partition.mapping import QubitMapping
from .sparse import compile_sparse
from .gp_tp import compile_gp_tp

__all__ = [
    "compile_sparse",
    "compile_gp_tp",
    "compile_cat_only",
    "compile_no_commute",
    "compile_plain_schedule",
]


def compile_cat_only(circuit: Circuit, network: QuantumNetwork,
                     mapping: Optional[QubitMapping] = None) -> CompiledProgram:
    """AutoComm restricted to Cat-Comm assignments (Figure 17b ablation)."""
    config = AutoCommConfig(cat_only=True)
    return AutoCommCompiler(config).compile(circuit, network, mapping)


def compile_no_commute(circuit: Circuit, network: QuantumNetwork,
                       mapping: Optional[QubitMapping] = None) -> CompiledProgram:
    """AutoComm with commutation disabled in aggregation (Figure 17a ablation)."""
    config = AutoCommConfig(use_commutation=False)
    return AutoCommCompiler(config).compile(circuit, network, mapping)


def compile_plain_schedule(circuit: Circuit, network: QuantumNetwork,
                           mapping: Optional[QubitMapping] = None) -> CompiledProgram:
    """AutoComm with the plain ASAP greedy schedule (Figure 17c ablation)."""
    config = AutoCommConfig(schedule_strategy="greedy")
    return AutoCommCompiler(config).compile(circuit, network, mapping)
