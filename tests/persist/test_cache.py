"""CompileCache robustness: corruption, atomicity, env resolution, wiring."""

import gzip
import json
import threading
import warnings

import pytest

from repro.circuits import qft_circuit
from repro.core import compile_autocomm
from repro.hardware import uniform_network
from repro.persist import (CACHE_DIR_ENV, CompileCache, SCHEMA_VERSION,
                           canonical_json, compile_fingerprint, dumps_program,
                           program_to_payload, resolve_cache)
from repro.persist.cache import ENTRY_SUFFIX


def _inputs(num_qubits=8, nodes=3):
    return qft_circuit(num_qubits), uniform_network(
        nodes, -(-num_qubits // nodes))


def _fill(cache):
    """Compile one program into ``cache``; returns (fingerprint, program)."""
    circuit, network = _inputs()
    key = compile_fingerprint(circuit, network)
    program = compile_autocomm(circuit, network, cache=cache)
    return key, program


class TestStoreLoad:
    def test_round_trip_and_counters(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, program = _fill(cache)
        assert key in cache
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.metrics.as_dict() == program.metrics.as_dict()
        assert cache.counters() == {"hits": 1, "misses": 1, "stores": 1,
                                    "corrupt": 0}

    def test_missing_entry_is_silent_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load("0" * 64) is None
        assert cache.counters()["corrupt"] == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = CompileCache(tmp_path)
        _fill(cache)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".store-")]
        assert leftovers == []


class TestCorruption:
    def test_truncated_entry_recompiles_with_warning(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, program = _fill(cache)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.load(key) is None
        # The pipeline degrades the same way: a fresh compile, re-stored.
        circuit, network = _inputs()
        with pytest.warns(RuntimeWarning, match="corrupt"):
            again = compile_autocomm(circuit, network, cache=cache)
        assert again.metrics.as_dict() == program.metrics.as_dict()
        assert cache.load(key) is not None

    def test_garbage_entry_recompiles_with_warning(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, _ = _fill(cache)
        cache.path_for(key).write_bytes(b"this is not gzip at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.load(key) is None
        assert cache.counters()["corrupt"] == 1

    def test_valid_gzip_wrong_json_warns(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, _ = _fill(cache)
        cache.path_for(key).write_bytes(gzip.compress(b"[1, 2, 3]"))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.load(key) is None

    def test_inconsistent_shape_recompiles_with_warning(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, program = _fill(cache)
        payload = program_to_payload(program)
        payload["blocks_mode"] = "explicit"
        cache.path_for(key).write_bytes(
            gzip.compress(canonical_json(payload).encode("utf-8")))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.load(key) is None
        assert cache.counters()["corrupt"] == 1
        circuit, network = _inputs()
        with pytest.warns(RuntimeWarning, match="corrupt"):
            again = compile_autocomm(circuit, network, cache=cache)
        assert again.metrics.as_dict() == program.metrics.as_dict()
        assert cache.load(key) is not None
        assert cache.counters()["corrupt"] == 2

    def test_schema_skew_is_silent_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, _ = _fill(cache)
        skewed = {"schema": SCHEMA_VERSION + 1, "kind": "compiled-program"}
        cache.path_for(key).write_bytes(
            gzip.compress(json.dumps(skewed).encode("utf-8")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(key) is None
        assert cache.counters()["corrupt"] == 0


class TestAtomicity:
    def test_concurrent_stores_same_key(self, tmp_path):
        cache = CompileCache(tmp_path)
        circuit, network = _inputs()
        key = compile_fingerprint(circuit, network)
        program = compile_autocomm(circuit, network)
        # Entries are stored span-stripped, so loaded programs re-encode to
        # the span-free bytes.
        data = dumps_program(program, spans=False)
        errors = []

        def worker():
            local = CompileCache(tmp_path)
            try:
                for _ in range(5):
                    local.store(key, program)
                    loaded = local.load(key)
                    if loaded is None:
                        errors.append("load missed a stored key")
                    elif dumps_program(loaded) != data:
                        errors.append("loaded bytes differ")
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.load(key) is not None

    def test_store_failure_cleans_temp(self, tmp_path, monkeypatch):
        cache = CompileCache(tmp_path)
        circuit, network = _inputs()
        program = compile_autocomm(circuit, network)
        import os as _os
        real_replace = _os.replace

        def failing_replace(src, dst):
            if str(dst).endswith(ENTRY_SUFFIX):
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.persist.cache.os.replace", failing_replace)
        with pytest.raises(OSError):
            cache.store("f" * 64, program)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".store-")]
        assert leftovers == []
        assert "f" * 64 not in cache


class TestStatsAndClear:
    def test_stats_report_disk_and_counters(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, _ = _fill(cache)
        cache.load(key)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == cache.path_for(key).stat().st_size
        assert stats["counters"]["hits"] == 1
        assert stats["counters"]["stores"] == 1

    def test_sidecar_accumulates_across_instances(self, tmp_path):
        first = CompileCache(tmp_path)
        key, _ = _fill(first)
        second = CompileCache(tmp_path)
        second.load(key)
        assert second.counters()["hits"] == 1  # per-process registry
        assert second.stats()["counters"]["hits"] == 1
        assert second.stats()["counters"]["stores"] == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = CompileCache(tmp_path)
        key, _ = _fill(cache)
        assert cache.clear() == 1
        assert cache.entries() == []
        assert key not in cache
        # clear() drops the stats sidecar with the entries.
        assert cache.stats()["counters"] == {"hits": 0, "misses": 0,
                                             "stores": 0, "corrupt": 0}


class TestResolveCache:
    def test_false_disables_even_with_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache(False) is None

    def test_instance_passes_through(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert resolve_cache(cache) is cache

    def test_path_builds_cache(self, tmp_path):
        cache = resolve_cache(tmp_path / "store")
        assert isinstance(cache, CompileCache)
        assert cache.directory == tmp_path / "store"

    def test_none_consults_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = resolve_cache(None)
        assert isinstance(cache, CompileCache)
        assert cache.directory == tmp_path


class TestPipelineWiring:
    def test_second_compile_hits(self, tmp_path):
        cache = CompileCache(tmp_path)
        circuit, network = _inputs()
        cold = compile_autocomm(circuit, network, cache=cache)
        warm = compile_autocomm(circuit, network, cache=cache)
        assert cache.counters()["hits"] == 1
        assert warm.metrics.as_dict() == cold.metrics.as_dict()

    def test_hit_gets_fresh_span_tree(self, tmp_path):
        cache = CompileCache(tmp_path)
        circuit, network = _inputs()
        compile_autocomm(circuit, network, cache=cache)
        warm = compile_autocomm(circuit, network, cache=cache)
        stages = [child.name for child in warm.spans.children]
        assert stages == ["cache-lookup"]
        assert warm.spans.children[0].counters["hit"] == 1

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        circuit, network = _inputs()
        compile_autocomm(circuit, network)
        compile_autocomm(circuit, network)
        cache = CompileCache(tmp_path)
        assert len(cache.entries()) == 1
        assert cache.stats()["counters"]["hits"] == 1

    def test_false_overrides_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        circuit, network = _inputs()
        compile_autocomm(circuit, network, cache=False)
        assert CompileCache(tmp_path).entries() == []

    def test_different_config_is_a_different_entry(self, tmp_path):
        from repro.core import AutoCommConfig
        cache = CompileCache(tmp_path)
        circuit, network = _inputs()
        compile_autocomm(circuit, network, cache=cache)
        compile_autocomm(circuit, network,
                         config=AutoCommConfig(remap="bursts",
                                               phase_blocks=4),
                         cache=cache)
        assert len(cache.entries()) == 2
        assert cache.counters()["hits"] == 0
