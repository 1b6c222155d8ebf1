"""Cache-then-execute orchestration of experiment specs.

``Engine.run`` expands the specs it is given into (spec, part) tasks,
serves whatever the content-addressed cache already holds, runs the
misses in this process in spec and part order, publishes fresh results
back to the cache, and assembles the per-experiment report blocks in
spec order — so the rendered report is byte-identical whatever the
cache state.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import time
from dataclasses import dataclass, field

from repro.errors import ExperimentExecutionError
from repro.exec.cache import ResultCache, cache_key, payload_digest
from repro.exec.fingerprint import source_fingerprint
from repro.exec.spec import (
    ExperimentReport,
    ExperimentSpec,
    TaskOutcome,
    config_kwargs,
)
from repro.obs.instruments import EXEC_CACHE, EXEC_TASK_SECONDS, EXEC_TASKS


def _seed_rngs(spec: ExperimentSpec, part: str) -> None:
    """Deterministic per-task seeding, independent of what ran before.

    Experiments draw their randomness from explicit ``RngRegistry``
    seeds already; this pins the *ambient* generators so any incidental
    use is reproducible too.
    """
    digest = hashlib.sha256(
        f"{spec.exp_id}:{part}:{spec.seed}".encode()).digest()
    random.seed(digest)
    try:
        import numpy

        numpy.random.seed(int.from_bytes(digest[:4], "big"))
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass


def execute_task(spec: ExperimentSpec, part: str) -> dict:
    """Run one (spec, part) task to a JSON payload."""
    module = importlib.import_module(spec.module)
    _seed_rngs(spec, part)
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
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    #: task id -> canonical digest of its payload (identical across
    #: runs and cache states — asserted by the determinism tests).
    digests: dict[str, str] = field(default_factory=dict)
    outcomes: dict[str, TaskOutcome] = field(default_factory=dict)


class Engine:
    """Run experiment specs through the result cache.

    Parameters
    ----------
    cache:
        ``False`` disables both cache reads and writes — every task
        recomputes (the cold path, used by benches).
    cache_root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro-cache``.
    """

    def __init__(self, cache: bool = True, cache_root: str | None = None):
        self.cache_enabled = cache
        self.cache = ResultCache(cache_root)
        self.stats = EngineStats()

    def run(self, specs: list[ExperimentSpec] | None = None,
            ) -> dict[str, ExperimentReport]:
        """Execute ``specs`` (default: every paper experiment).

        Returns ``exp_id -> ExperimentReport`` in spec order.  A task
        that raises does not stop the batch; afterwards
        :class:`ExperimentExecutionError` names every failed task and
        nothing from the batch is cached.
        """
        if specs is None:
            from repro.exec import registry

            specs = registry.specs_for()
        t0 = time.perf_counter()
        stats = EngineStats()

        keys: dict[str, str] = {}
        outcomes: dict[str, TaskOutcome] = {}
        misses: list[tuple[ExperimentSpec, str, str]] = []
        for spec in specs:
            fingerprint = source_fingerprint(spec.all_sources())
            for part in spec.parts:
                task_id = f"{spec.exp_id}:{part}"
                keys[task_id] = cache_key(spec, part, fingerprint)
                payload = (self.cache.load(keys[task_id])
                           if self.cache_enabled else None)
                if payload is not None:
                    EXEC_CACHE.labels("hit").inc()
                    stats.cache_hits += 1
                    outcomes[task_id] = TaskOutcome(
                        task_id, payload=payload, cached=True)
                else:
                    if self.cache_enabled:
                        EXEC_CACHE.labels("miss").inc()
                    stats.cache_misses += 1
                    misses.append((spec, part, task_id))

        for spec, part, task_id in misses:
            outcomes[task_id] = self._execute(spec, part, task_id)

        failed = [o for o in outcomes.values() if not o.ok]
        if failed:
            detail = "; ".join(f"{o.task_id}: {o.error}" for o in failed)
            stats.outcomes = outcomes
            self.stats = stats
            raise ExperimentExecutionError(
                f"{len(failed)} experiment task(s) failed: {detail}")

        if self.cache_enabled:
            for spec, part, task_id in misses:
                self.cache.store(keys[task_id], spec.exp_id, part,
                                 outcomes[task_id].payload)

        for outcome in outcomes.values():
            outcome.digest = payload_digest(outcome.payload)
            stats.digests[outcome.task_id] = outcome.digest
        stats.outcomes = outcomes
        stats.executed = len(misses)
        stats.wall_s = time.perf_counter() - t0
        self.stats = stats

        blocks: dict[str, ExperimentReport] = {}
        for spec in specs:
            parts = {part: outcomes[f"{spec.exp_id}:{part}"].payload
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
