"""The content-addressed result cache: addressing, invalidation,
corruption recovery.

Invalidation in this design is purely by address — editing a declared
source module, changing a config field, or changing the seed moves the
cache key, so the stale entry is simply never looked up again.  These
tests pin that, plus the self-verifying entry format: a corrupted entry
must be detected on read, evicted, and reported as a miss.
"""

import dataclasses
import sys

import pytest

from repro.exec.cache import CACHE_FORMAT, ResultCache, cache_key, payload_digest
from repro.exec.fingerprint import source_fingerprint
from repro.exec.spec import ExperimentSpec

PAYLOAD = {"rows": [["a", "b", "c"]], "exp_id": "x", "title": "t",
           "notes": ""}


@dataclasses.dataclass(frozen=True)
class FakeConfig:
    interval_s: float = 0.25
    samples: int = 100


def spec(config=FakeConfig(), seed=7, sources=()):
    return ExperimentSpec(
        exp_id="fake", title="Fake", module="json", config=config,
        seed=seed, sources=sources)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestAddressing:
    def test_same_inputs_same_key(self):
        assert cache_key(spec(), "all", "fp") == cache_key(spec(), "all", "fp")

    def test_config_field_change_moves_key(self):
        a = cache_key(spec(FakeConfig(interval_s=0.25)), "all", "fp")
        b = cache_key(spec(FakeConfig(interval_s=0.5)), "all", "fp")
        assert a != b

    def test_seed_part_and_fingerprint_move_key(self):
        base = cache_key(spec(), "all", "fp")
        assert cache_key(spec(seed=8), "all", "fp") != base
        assert cache_key(spec(), "512", "fp") != base
        assert cache_key(spec(), "all", "fp2") != base

    def test_source_edit_moves_key(self, tmp_path, monkeypatch):
        """Touching a declared source module changes its fingerprint and
        with it the cache address — the on-disk entry goes stale by
        never being addressed again."""
        module = tmp_path / "fake_exp_source.py"
        module.write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        s = spec(sources=("fake_exp_source",))
        fp1 = source_fingerprint(s.all_sources())
        key1 = cache_key(s, "all", fp1)

        module.write_text("VALUE = 2\n")
        fp2 = source_fingerprint(s.all_sources())
        key2 = cache_key(s, "all", fp2)
        assert fp1 != fp2
        assert key1 != key2
        sys.modules.pop("fake_exp_source", None)


class TestRoundtrip:
    def test_store_then_load(self, cache):
        key = cache_key(spec(), "all", "fp")
        assert cache.load(key) is None
        cache.store(key, "fake", "all", PAYLOAD)
        assert cache.load(key) == PAYLOAD

    def test_stats_and_clear(self, cache):
        for part in ("a", "b"):
            cache.store(cache_key(spec(), part, "fp"), "fake", part, PAYLOAD)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.experiments == {"fake": 2}
        assert stats.total_bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestCorruption:
    def _entry_path(self, cache, key):
        cache.store(key, "fake", "all", PAYLOAD)
        path = cache._path(key)
        assert path.is_file()
        return path

    def test_truncated_entry_evicted_and_recomputed(self, cache):
        key = cache_key(spec(), "all", "fp")
        path = self._entry_path(cache, key)
        path.write_text(path.read_text()[: 40])  # simulate a torn write
        assert cache.load(key) is None
        assert not path.exists()  # evicted, not served
        # The engine would recompute and re-store; the slot works again.
        cache.store(key, "fake", "all", PAYLOAD)
        assert cache.load(key) == PAYLOAD

    def test_payload_tamper_detected(self, cache):
        import json

        key = cache_key(spec(), "all", "fp")
        path = self._entry_path(cache, key)
        entry = json.loads(path.read_text())
        entry["payload"]["rows"] = [["tampered", "x", "y"]]
        path.write_text(json.dumps(entry))
        assert cache.load(key) is None
        assert not path.exists()

    def test_wrong_format_version_evicted(self, cache):
        import json

        key = cache_key(spec(), "all", "fp")
        path = self._entry_path(cache, key)
        entry = json.loads(path.read_text())
        entry["format"] = CACHE_FORMAT + 1
        path.write_text(json.dumps(entry))
        assert cache.load(key) is None

    def test_payload_digest_is_order_insensitive(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1})
