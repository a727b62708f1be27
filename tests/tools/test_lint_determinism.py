"""The determinism linter: every rule fires, and the package is clean."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_linter():
    name = "lint_determinism"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / "lint_determinism.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


linter = _load_linter()


def _rules(source):
    return [f.rule for f in linter.check_source(source, "snippet.py")]


class TestRandomGlobal:
    def test_module_convenience_call(self):
        assert _rules("import random\nx = random.random()\n") == [
            "random-global"]

    def test_shuffle_and_choice(self):
        src = "import random\nrandom.shuffle(xs)\nrandom.choice(xs)\n"
        assert _rules(src) == ["random-global", "random-global"]

    def test_from_import_flagged_at_import_and_call(self):
        src = "from random import randint\nx = randint(0, 3)\n"
        assert _rules(src) == ["random-global", "random-global"]

    def test_seeded_instance_allowed(self):
        src = ("import random\n"
               "rng = random.Random(7)\n"
               "x = rng.random()\n"
               "rng.shuffle(xs)\n")
        assert _rules(src) == []


class TestWallClock:
    def test_datetime_now(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert _rules(src) == ["wall-clock"]

    def test_datetime_utcnow_and_today(self):
        src = ("from datetime import datetime, date\n"
               "a = datetime.utcnow()\n"
               "b = date.today()\n")
        assert _rules(src) == ["wall-clock", "wall-clock"]

    def test_time_time(self):
        assert _rules("import time\nt = time.time()\n") == ["wall-clock"]

    def test_perf_counter_allowed(self):
        # Monotonic duration timers are deterministic in what they are used
        # for (relative spans) and must stay allowed — obs.span uses them.
        assert _rules("import time\nt = time.perf_counter()\n") == []


class TestNumpyRandom:
    def test_global_convenience(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert _rules(src) == ["numpy-random"]

    def test_global_seed(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert _rules(src) == ["numpy-random"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rules(src) == ["numpy-random"]

    def test_unseeded_randomstate(self):
        src = "import numpy as np\nrng = np.random.RandomState()\n"
        assert _rules(src) == ["numpy-random"]

    def test_seeded_constructors_allowed(self):
        src = ("import numpy as np\n"
               "a = np.random.default_rng(7)\n"
               "b = np.random.RandomState(7)\n"
               "x = a.random(3)\n")
        assert _rules(src) == []


class TestSetIteration:
    def test_for_over_set_call(self):
        assert _rules("for x in set(xs):\n    pass\n") == ["set-iteration"]

    def test_for_over_set_literal(self):
        assert _rules("for x in {1, 2, 3}:\n    pass\n") == ["set-iteration"]

    def test_comprehension_over_set(self):
        assert _rules("ys = [f(x) for x in set(xs)]\n") == ["set-iteration"]

    def test_list_of_set(self):
        assert _rules("ys = list(set(xs))\n") == ["set-iteration"]

    def test_sorted_set_allowed(self):
        src = ("for x in sorted(set(xs)):\n    pass\n"
               "ys = list(sorted({1, 2}))\n")
        assert _rules(src) == []

    def test_membership_test_allowed(self):
        assert _rules("ok = x in {1, 2, 3}\n") == []


class TestHashId:
    def test_silent_without_opt_in(self):
        # hash-id is opt-in: ordinary modules may use hash()/id() freely
        # (dict internals, identity checks) without findings.
        assert _rules("x = hash(key)\ny = id(obj)\n") == []

    def test_fires_with_opt_in(self):
        findings = linter.check_source("x = hash(key)\ny = id(obj)\n",
                                       "snippet.py",
                                       extra=frozenset({"hash-id"}))
        assert [f.rule for f in findings] == ["hash-id", "hash-id"]

    def test_method_named_hash_allowed(self):
        src = "d = obj.hash()\ne = spec.id(3)\n"
        findings = linter.check_source(src, "snippet.py",
                                       extra=frozenset({"hash-id"}))
        assert findings == []

    def test_persist_package_opted_in(self):
        path = REPO_ROOT / "src" / "repro" / "persist" / "codec.py"
        assert linter._extra_rules(path) == frozenset({"hash-id"})
        assert linter._extra_rules(
            REPO_ROOT / "src" / "repro" / "core" / "pipeline.py"
        ) == frozenset()

    def test_persist_package_is_clean(self):
        persist = REPO_ROOT / "src" / "repro" / "persist"
        findings = []
        for path in linter.iter_py_files(persist):
            findings.extend(linter.check_file(path))
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_check_file_applies_strict_rules(self, tmp_path):
        strict_dir = tmp_path / "repro" / "persist"
        strict_dir.mkdir(parents=True)
        dirty = strict_dir / "payload.py"
        dirty.write_text("key = hash((a, b))\n")
        assert [f.rule for f in linter.check_file(dirty)] == ["hash-id"]
        relaxed = tmp_path / "repro" / "other.py"
        relaxed.write_text("key = hash((a, b))\n")
        assert linter.check_file(relaxed) == []


class TestEnvRead:
    def test_environ_get(self):
        src = "import os\nx = os.environ.get('REPRO_X')\n"
        assert _rules(src) == ["env-read"]

    def test_environ_subscript_and_membership(self):
        src = ("import os\n"
               "x = os.environ['REPRO_X']\n"
               "y = 'REPRO_Y' in os.environ\n")
        assert _rules(src) == ["env-read", "env-read"]

    def test_getenv(self):
        assert _rules("import os\nx = os.getenv('REPRO_X', '')\n") == [
            "env-read"]

    def test_from_import(self):
        src = ("from os import environ, getenv, path\n"
               "x = environ.get('REPRO_X')\n")
        assert _rules(src) == ["env-read", "env-read"]

    def test_other_os_use_allowed(self):
        src = ("import os\n"
               "p = os.path.join('a', 'b')\n"
               "n = os.cpu_count()\n"
               "e = config.environ\n")
        assert _rules(src) == []

    def test_cache_dir_readers_are_allowlisted(self):
        for module in ("persist/cache.py", "core/pipeline.py"):
            path = REPO_ROOT / "src" / "repro" / module
            assert "env-read" in linter._allowed_rules(path)
            assert linter.check_file(path) == []
            unallowed = linter.check_source(path.read_text(), str(path))
            assert [f.rule for f in unallowed] == ["env-read"]


class TestAllowlistAndTree:
    def test_allowlist_suppresses_rule(self):
        src = "import numpy as np\nrng = np.random.RandomState()\n"
        findings = linter.check_source(src, "x.py",
                                       allow=frozenset({"numpy-random"}))
        assert findings == []

    def test_epr_process_has_no_exemption(self):
        path = REPO_ROOT / "src" / "repro" / "sim" / "epr_process.py"
        assert linter._allowed_rules(path) == frozenset()
        assert linter.check_file(path) == []

    def test_package_tree_is_clean(self):
        findings = []
        for path in linter.iter_py_files(REPO_ROOT / "src" / "repro"):
            findings.extend(linter.check_file(path))
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import random\nrng = random.Random(3)\n")
        assert linter.main((str(clean),)) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert linter.main((str(dirty),)) == 1
        out = capsys.readouterr()
        assert "random-global" in out.out
