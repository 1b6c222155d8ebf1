"""``repro.api.exec`` — the experiment execution engine.

Experiment specs and reports, the in-process engine that runs them,
and the content-addressed result cache.
"""

from __future__ import annotations

from repro.exec import (
    CacheStats,
    Engine,
    EngineStats,
    ExperimentReport,
    ExperimentSpec,
    ResultCache,
)

__all__ = [
    "CacheStats",
    "Engine",
    "EngineStats",
    "ExperimentReport",
    "ExperimentSpec",
    "ResultCache",
]
