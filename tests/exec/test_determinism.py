"""The engine's core contract: report bytes never depend on how it ran.

Repeat runs, cache state, and what ran earlier in the process are
execution details; the rendered markdown and the per-task payload
digests must be identical across all of them.  These run the full
13-experiment report a few times — the cold passes cost ~half a second
each.
"""

import dataclasses
import sys

import pytest

from repro.errors import ExperimentExecutionError
from repro.exec.engine import Engine
from repro.exec.registry import specs_for
from repro.experiments import report


def _digests(engine):
    return dict(engine.stats.digests)


class TestRepeatRunsInOneProcess:
    def test_report_bytes_two_runs(self):
        md_first = report.generate_markdown(cache=False)
        md_second = report.generate_markdown(cache=False)
        assert md_first == md_second

    def test_payload_digests_two_runs(self):
        first = Engine(cache=False)
        first.run()
        second = Engine(cache=False)
        second.run()
        assert _digests(first) == _digests(second)
        assert len(_digests(first)) == 15  # 12 single-part + 3 table3 shards


class TestCacheStateIndependence:
    def test_warm_cache_serves_identical_bytes(self, tmp_path):
        root = tmp_path / "cache"
        md_cold = report.generate_markdown(cache=True, cache_root=root)
        md_warm = report.generate_markdown(cache=True, cache_root=root)
        assert md_cold == md_warm

        # And the warm pass really was served from the cache.
        engine = Engine(cache=True, cache_root=root)
        engine.run()
        assert engine.stats.cache_misses == 0
        assert engine.stats.cache_hits == 15
        assert engine.stats.executed == 0

    def test_cached_digests_match_fresh(self, tmp_path):
        root = tmp_path / "cache"
        cold = Engine(cache=True, cache_root=root)
        cold.run()
        warm = Engine(cache=True, cache_root=root)
        warm.run()
        assert _digests(cold) == _digests(warm)

    def test_disabled_cache_writes_nothing(self, tmp_path):
        root = tmp_path / "cache"
        engine = Engine(cache=False, cache_root=root)
        engine.run(specs_for(["table1"]))
        assert not root.exists()


class TestFailureSurface:
    def test_unknown_experiment_names_registry(self):
        with pytest.raises(ExperimentExecutionError, match="fig99"):
            specs_for(["fig99"])

    def test_a_raising_task_fails_the_batch_not_the_rest(self, tmp_path,
                                                         monkeypatch):
        module = "repro_test_broken_experiment"
        source = tmp_path / "src"
        source.mkdir()
        (source / f"{module}.py").write_text(
            "def run():\n    raise ValueError('boom')\n")
        monkeypatch.syspath_prepend(str(source))
        monkeypatch.delitem(sys.modules, module, raising=False)
        (good,) = specs_for(["table1"])
        bad = dataclasses.replace(good, exp_id="broken", module=module,
                                  config=None, sources=())

        root = tmp_path / "cache"
        engine = Engine(cache=True, cache_root=root)
        with pytest.raises(ExperimentExecutionError,
                           match=r"broken:all: ValueError: boom"):
            engine.run([bad, good])
        outcomes = engine.stats.outcomes
        assert not outcomes["broken:all"].ok
        assert outcomes["table1:all"].ok
        assert not root.exists() or not any(root.iterdir())
