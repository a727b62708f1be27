"""Content-addressed cache keys for compilations.

Compilation is fully deterministic in (circuit, network, initial mapping,
:class:`~repro.core.pipeline.AutoCommConfig`), so one stable hash of those
inputs addresses the compiled artifact.  Each fingerprint is the SHA-256
hex digest of the input's *canonical payload JSON* (sorted keys, explicit
fields — see :mod:`repro.persist.codec`), which makes it

* stable across process restarts and machines (no ``hash()``/``id()``,
  nothing ``PYTHONHASHSEED``-dependent — ``tools/lint_determinism.py``
  enforces this for the whole package);
* sensitive to *every* behavioural input: gate parameters, topology and
  link overrides, the remap mode, ``phase_blocks``, and the circuit name
  (program and metrics names derive from it).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Optional

from ..core.pipeline import AutoCommConfig
from ..hardware.network import QuantumNetwork
from ..ir.circuit import Circuit
from ..partition.mapping import QubitMapping
from .codec import (SCHEMA_VERSION, canonical_json, circuit_to_payload,
                    mapping_to_payload, network_to_payload)

__all__ = ["fingerprint_circuit", "fingerprint_network",
           "fingerprint_mapping", "fingerprint_config",
           "compile_fingerprint"]


def _digest(kind: str, payload: object) -> str:
    text = canonical_json({"schema": SCHEMA_VERSION, "kind": kind,
                           "payload": payload})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_circuit(circuit: Circuit) -> str:
    """Structural hash of a circuit (gates, qubit count, name)."""
    return _digest("circuit", circuit_to_payload(circuit))


def fingerprint_network(network: QuantumNetwork) -> str:
    """Hash of the full machine model: nodes, latency, topology, routing, links."""
    return _digest("network", network_to_payload(network))


def fingerprint_mapping(mapping: Optional[QubitMapping]) -> str:
    """Hash of an initial qubit placement (``None`` = let OEE place)."""
    return _digest("mapping",
                   None if mapping is None else mapping_to_payload(mapping))


def fingerprint_config(config: AutoCommConfig) -> str:
    """Hash of every pipeline knob.

    Built from the dataclass fields themselves, so a knob added to
    :class:`~repro.core.pipeline.AutoCommConfig` is keyed automatically and
    the cache can never serve a program compiled under other settings.
    """
    return _digest("config", asdict(config))


def compile_fingerprint(circuit: Circuit, network: QuantumNetwork,
                        mapping: Optional[QubitMapping] = None,
                        config: Optional[AutoCommConfig] = None) -> str:
    """The content address of one compilation's output."""
    return _digest("compile", {
        "circuit": fingerprint_circuit(circuit),
        "network": fingerprint_network(network),
        "mapping": fingerprint_mapping(mapping),
        "config": fingerprint_config(config or AutoCommConfig()),
    })
