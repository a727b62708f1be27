"""The aggregation counter gate: clean compiles pass, overruns are caught."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_smoke():
    name = "aggregation_smoke"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / "aggregation_smoke.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


aggregation_smoke = _load_smoke()

_COUNTERS = {"gates": 100, "blocks": 10, "window_items": 300,
             "relinked_items": 250, "deferred_checks": 200,
             "commute_calls": 80}


def test_counters_within_bounds_pass():
    assert aggregation_smoke.check(_COUNTERS) == []


def test_each_overrun_is_reported():
    counters = dict(_COUNTERS, relinked_items=311, commute_calls=101)
    failures = aggregation_smoke.check(counters)
    assert len(failures) == 3
    assert "window_items + blocks = 310" in failures[0]
    assert "3 * gates = 300" in failures[1]
    assert failures[2].startswith("commute_calls = 101")


def test_main_exit_status(monkeypatch, capsys):
    monkeypatch.setattr(aggregation_smoke, "PROGRAM", ("QFT", 24, 4))
    assert aggregation_smoke.main([]) == 0
    out = capsys.readouterr().out
    assert "aggregation" in out and out.splitlines()[-1] == "OK"
    monkeypatch.setattr(aggregation_smoke, "BOUNDS",
                        (("window_items", ((0, "gates"),)),))
    assert aggregation_smoke.main([]) == 1
