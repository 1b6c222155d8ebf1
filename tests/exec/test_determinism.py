"""The engine's core contract: report bytes never depend on how it ran.

Repeat runs, the state of the process-global random generators, and
what ran earlier in the process are execution details; the rendered
markdown and the per-task payloads must be identical across all of
them.  These run the full 13-experiment report a few times — each pass
costs ~half a second.
"""

import dataclasses
import random
import sys

import numpy
import pytest

from repro.errors import ExperimentExecutionError
from repro.exec.engine import Engine
from repro.exec.registry import specs_for
from repro.experiments import report


def _payloads(engine):
    return {task_id: outcome.payload
            for task_id, outcome in engine.stats.outcomes.items()}


class TestRepeatRunsInOneProcess:
    def test_report_bytes_two_runs(self):
        md_first = report.generate_markdown()
        md_second = report.generate_markdown()
        assert md_first == md_second

    @pytest.mark.tier1
    def test_payloads_ignore_the_global_rngs(self):
        """No experiment draws from ``random`` or ``numpy.random``:
        reseeding both before each run leaves every payload equal."""
        runs = []
        for seed in (1, 987654):
            random.seed(seed)
            numpy.random.seed(seed)
            engine = Engine()
            engine.run()
            runs.append(_payloads(engine))
        assert runs[0] == runs[1]
        assert len(runs[0]) == 15  # 12 single-part + 3 table3 shards


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
                                  config=None)

        engine = Engine()
        with pytest.raises(ExperimentExecutionError,
                           match=r"broken:all: ValueError: boom"):
            engine.run([bad, good])
        outcomes = engine.stats.outcomes
        assert not outcomes["broken:all"].ok
        assert outcomes["table1:all"].ok
