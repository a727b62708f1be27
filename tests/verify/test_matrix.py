"""CI-style gate: zero diagnostics across the benchmark matrix.

Every benchmark family x topology x remap mode, and each of the paper's
baselines, must compile into an artifact the static verifier and the trace
sanitizer find nothing wrong with — the matrix ``tools/verify_suite.py``
sweeps in CI, at a test-sized scale here.  The test loads the tool and
takes its remap modes, baselines and compile function from it, so the two
cannot drift apart.

The same matrix, plus the paper's ablation configs on a line, is also
pinned byte-for-byte by golden digests (``golden_digests.json``): any
change to a compiled program, its deterministic replay or a seeded
stochastic trial shows up as a digest mismatch.  Regenerate the fixture
with ``PYTHONPATH=src python tests/verify/test_matrix.py`` — only for a
change that is meant to alter outputs, and say why in the change log.
"""

import gzip
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.circuits import BENCHMARK_FAMILIES
from repro.core import AutoCommConfig
from repro.hardware import SUPPORTED_TOPOLOGIES
from repro.persist import dumps_program
from repro.sim import SimulationConfig, simulate_program
from repro.verify import sanitize_simulation, verify_program

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_verify_suite():
    name = "verify_suite"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / "verify_suite.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


verify_suite = _load_verify_suite()

NUM_QUBITS = 8
NUM_NODES = 4

#: The CI gate's variants: its remap modes and the paper's baselines
#: (Table 3 and Figure 16).
VARIANTS = verify_suite.REMAP_MODES + tuple(verify_suite.BASELINES)

#: Paper ablations (Figure 17) and the remap sizing/overlap variants whose
#: outputs the golden digests pin, each compiled for every family on a line.
ABLATIONS = {
    "nocommute": AutoCommConfig(use_commutation=False),
    "catonly": AutoCommConfig(cat_only=True),
    "greedy": AutoCommConfig(schedule_strategy="greedy"),
    "autosize": AutoCommConfig(remap="bursts", phase_blocks=4,
                               phase_sizing="auto"),
    "autosize-overlap-greedy": AutoCommConfig(
        remap="bursts", phase_blocks=4, phase_sizing="auto", overlap=True,
        schedule_strategy="greedy"),
}

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def _compile(family, topology, variant):
    return verify_suite.compile_combination(family, topology, variant,
                                            NUM_QUBITS, NUM_NODES)


def _golden_cases():
    """``{case id: (family, topology, variant)}`` for every pinned program."""
    cases = {}
    for family in sorted(BENCHMARK_FAMILIES):
        for topology in SUPPORTED_TOPOLOGIES:
            for name in VARIANTS:
                cases[f"{family}/{topology}/{name}"] = (
                    family, topology, name)
        for name, config in ABLATIONS.items():
            cases[f"{family}/line/{name}"] = (family, "line", config)
    return cases


GOLDEN_CASES = _golden_cases()


def program_digest(program):
    """SHA-256 over a program's bytes, its replay and one seeded trial.

    Hashes the canonical JSON inside ``dumps_program(spans=False)`` (the
    decompressed payload, so the digest does not depend on the zlib
    build), the deterministic replay's ``(index, kind, start, end,
    prep_start)`` per op, and a ``p_epr=0.5``, seed-0 trial's ``(index,
    start, end, epr_attempts)`` per op.
    """
    digest = hashlib.sha256()
    digest.update(gzip.decompress(dumps_program(program, spans=False)))
    replay = simulate_program(program, SimulationConfig(
        record_trace=False, record_metrics=False))
    digest.update(repr([(op.index, op.kind, op.start, op.end, op.prep_start)
                        for op in replay.ops]).encode())
    trial = simulate_program(program, SimulationConfig(
        p_epr=0.5, seed=0, record_trace=False, record_metrics=False))
    digest.update(repr([(op.index, op.start, op.end, op.epr_attempts)
                        for op in trial.ops]).encode())
    return digest.hexdigest()


def _case_digest(case):
    return program_digest(_compile(*GOLDEN_CASES[case]))


@pytest.mark.parametrize("compiler", VARIANTS)
@pytest.mark.parametrize("topology", SUPPORTED_TOPOLOGIES)
@pytest.mark.parametrize("family", sorted(BENCHMARK_FAMILIES))
def test_benchmark_matrix_verifies_clean(family, topology, compiler):
    program = _compile(family, topology, compiler)
    report = verify_program(program)
    config = SimulationConfig(ideal_links=True)
    report.merge(sanitize_simulation(
        program, simulate_program(program, config), config))
    assert report.clean, report.render()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_digest(case, golden):
    assert _case_digest(case) == golden[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {case: _case_digest(case) for case in sorted(GOLDEN_CASES)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(GOLDEN_CASES)} digests to {GOLDEN_PATH}")
