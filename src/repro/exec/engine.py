"""In-process execution of experiment specs.

``Engine.run`` expands the specs it is given into (spec, part) tasks,
runs them in this process in spec and part order, and assembles the
per-experiment report blocks in spec order.  Every run computes its
results, so the output always matches the code that ran.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

from repro.errors import ExperimentExecutionError
from repro.exec.spec import (
    ExperimentReport,
    ExperimentSpec,
    TaskOutcome,
    config_kwargs,
)
from repro.obs.instruments import EXEC_TASK_SECONDS, EXEC_TASKS


def execute_task(spec: ExperimentSpec, part: str) -> dict:
    """Run one (spec, part) task to a JSON payload."""
    module = importlib.import_module(spec.module)
    if hasattr(module, "run_part"):
        payload = module.run_part(part, spec.config)
    else:
        result = module.run(**config_kwargs(spec.config))
        payload = module.render(result).to_dict()
    if not isinstance(payload, dict):
        raise ExperimentExecutionError(
            f"{spec.module}.run_part must return a dict payload, "
            f"got {type(payload).__name__}"
        )
    return payload


@dataclass
class EngineStats:
    """Bookkeeping from the last ``Engine.run`` call."""

    wall_s: float = 0.0
    executed: int = 0
    outcomes: dict[str, TaskOutcome] = field(default_factory=dict)


class Engine:
    """Run experiment specs in this process, in order."""

    def __init__(self):
        self.stats = EngineStats()

    def run(self, specs: list[ExperimentSpec] | None = None,
            ) -> dict[str, ExperimentReport]:
        """Execute ``specs`` (default: every paper experiment).

        Returns ``exp_id -> ExperimentReport`` in spec order.  A task
        that raises does not stop the batch; afterwards
        :class:`ExperimentExecutionError` names every failed task.
        """
        if specs is None:
            from repro.exec import registry

            specs = registry.specs_for()
        t0 = time.perf_counter()
        stats = EngineStats()
        self.stats = stats
        for spec in specs:
            for part in spec.parts:
                task_id = f"{spec.exp_id}:{part}"
                stats.outcomes[task_id] = self._execute(spec, part, task_id)
        stats.executed = len(stats.outcomes)
        stats.wall_s = time.perf_counter() - t0

        failed = [o for o in stats.outcomes.values() if not o.ok]
        if failed:
            detail = "; ".join(f"{o.task_id}: {o.error}" for o in failed)
            raise ExperimentExecutionError(
                f"{len(failed)} experiment task(s) failed: {detail}")

        blocks: dict[str, ExperimentReport] = {}
        for spec in specs:
            parts = {part: stats.outcomes[f"{spec.exp_id}:{part}"].payload
                     for part in spec.parts}
            blocks[spec.exp_id] = self._assemble(spec, parts)
        return blocks

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _execute(spec: ExperimentSpec, part: str,
                 task_id: str) -> TaskOutcome:
        t0 = time.perf_counter()
        try:
            payload, error = execute_task(spec, part), ""
        except Exception as exc:  # reported after the batch, not raised
            payload, error = None, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - t0
        EXEC_TASKS.labels("error" if error else "ok").inc()
        EXEC_TASK_SECONDS.labels(spec.exp_id).observe(wall_s)
        return TaskOutcome(task_id, payload=payload, wall_s=wall_s,
                           error=error)

    @staticmethod
    def _assemble(spec: ExperimentSpec,
                  parts: dict[str, dict]) -> ExperimentReport:
        module = importlib.import_module(spec.module)
        if hasattr(module, "render_block"):
            return module.render_block(parts)
        return ExperimentReport.from_dict(parts[spec.parts[0]])
