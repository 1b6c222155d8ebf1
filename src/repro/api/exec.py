"""``repro.api.exec`` — the experiment execution engine.

Experiment specs and the paper-vs-measured report blocks each
experiment's ``render()`` produces, and the in-process engine that
runs them.
"""

from __future__ import annotations

from repro.exec import (
    Engine,
    EngineStats,
    ExperimentReport,
    ExperimentSpec,
)

__all__ = [
    "Engine",
    "EngineStats",
    "ExperimentReport",
    "ExperimentSpec",
]
