"""Persistent artifacts: canonical serialization and a compile cache.

Compilation is fully deterministic in its inputs, so compiled programs are
cacheable artifacts.  This package provides the three layers that make
that real:

* :mod:`repro.persist.codec` — versioned canonical payloads
  (``to_payload``/``from_payload``) for circuits, networks (routing tables
  and link models included), qubit mappings and whole compiled programs,
  with JSON and deterministic-gzip writers;
* :mod:`repro.persist.fingerprint` — stable SHA-256 content addresses over
  the compilation inputs (circuit, network, mapping,
  :class:`~repro.core.pipeline.AutoCommConfig`);
* :mod:`repro.persist.cache` — the on-disk :class:`CompileCache`
  (atomic writes, corruption-tolerant loads, stats), wired into
  :meth:`repro.core.pipeline.AutoCommCompiler.compile` via the ``cache``
  argument, the ``REPRO_CACHE_DIR`` environment variable or the CLI's
  ``--cache-dir``/``--no-cache`` flags.

A cache hit skips the whole decompose→partition→aggregate→assign→schedule
pipeline; the loaded program is behaviourally identical to a fresh
compile — same metrics, analytical latency, deterministic replay and
Monte-Carlo streams (``tests/persist/`` proves it across the benchmark
matrix).
"""

from .cache import CACHE_DIR_ENV, CompileCache, resolve_cache
from .codec import (SCHEMA_VERSION, canonical_json, circuit_from_payload,
                    circuit_to_payload, dumps_program, load_program,
                    loads_program, mapping_from_payload, mapping_to_payload,
                    network_from_payload, network_to_payload,
                    program_from_payload, program_to_payload, save_program)
from .fingerprint import (compile_fingerprint, fingerprint_circuit,
                          fingerprint_config, fingerprint_mapping,
                          fingerprint_network)

__all__ = [
    "SCHEMA_VERSION", "canonical_json",
    "circuit_to_payload", "circuit_from_payload",
    "network_to_payload", "network_from_payload",
    "mapping_to_payload", "mapping_from_payload",
    "program_to_payload", "program_from_payload",
    "save_program", "load_program", "dumps_program", "loads_program",
    "fingerprint_circuit", "fingerprint_network", "fingerprint_mapping",
    "fingerprint_config", "compile_fingerprint",
    "CompileCache", "resolve_cache", "CACHE_DIR_ENV",
]
