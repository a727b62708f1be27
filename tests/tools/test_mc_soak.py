"""The Monte-Carlo soak gate: clean runs pass, failing trials are caught."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import compile_autocomm
from repro.circuits import qft_circuit
from repro.hardware import uniform_network

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_soak():
    name = "mc_soak"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / "mc_soak.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


mc_soak = _load_soak()


@pytest.fixture(scope="module")
def program():
    return compile_autocomm(qft_circuit(12), uniform_network(3, 4))


def test_clean_program_passes(program):
    assert mc_soak.soak(program, trials=5, seed=3) == []


def test_raising_trial_is_reported(program, monkeypatch):
    def boom(program, config):
        raise ValueError("node 1: no free slot")

    monkeypatch.setattr(mc_soak, "run_monte_carlo", boom)
    failures = mc_soak.soak(program, trials=2, seed=3)
    assert len(failures) == 2
    assert "ValueError: node 1: no free slot" in failures[0]


def test_unexecuted_item_is_reported(program, monkeypatch):
    real = mc_soak.run_monte_carlo

    def drop_last_op(program, config):
        result = real(program, config)
        trial = result.sample_trial
        trial.ops = trial.ops[:-1]
        return replace(result, sample_trial=trial)

    monkeypatch.setattr(mc_soak, "run_monte_carlo", drop_last_op)
    failures = mc_soak.soak(program, trials=1, seed=3)
    assert len(failures) == 1 and "items" in failures[0]


def test_phased_and_capped_programs_soaked():
    names = [spec.name for spec in mc_soak.PROGRAMS]
    assert "QAOA-100@10 line remap+overlap" in names
    assert "QFT-30@4 line cap 1" in names


def test_capped_program_carries_the_capacity():
    spec = mc_soak.SoakProgram("QFT", 12, 4, "line", link_capacity=1)
    program = spec.compile()
    assert program.network.link_capacity(0, 1) == 1
    assert mc_soak.soak(program, trials=2, seed=3) == []


def test_main_exit_status(monkeypatch, capsys):
    monkeypatch.setattr(mc_soak, "PROGRAMS", (
        mc_soak.SoakProgram("QFT", 12, 3),
        mc_soak.SoakProgram("QFT", 12, 4, "line", remap=True,
                            link_capacity=1)))
    assert mc_soak.main(["--trials", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("QFT-12@4 line remap+overlap cap 1: 2 trials")
    assert out[-1] == "OK"
    monkeypatch.setattr(mc_soak, "soak", lambda *args: ["seed=1: boom"])
    assert mc_soak.main(["--trials", "2"]) == 1
