"""``repro.exec`` — the experiment execution engine.

Every table/figure/overhead experiment in the repository declares an
:class:`~repro.exec.spec.ExperimentSpec` (id, config dataclass,
deterministic seed, declared source modules); the engine runs specs in
this process, in spec order, and memoizes finished results in a
content-addressed cache under ``.repro-cache/``, keyed by a digest of
(experiment id, canonicalized config, source fingerprint).  Warm reruns
of ``python -m repro report`` skip execution entirely; the rendered
report is byte-identical regardless of cache state because blocks are
assembled from JSON payloads in registry order.

Layers, bottom up:

* :mod:`repro.exec.spec` — spec/report dataclasses and config canonicalization;
* :mod:`repro.exec.fingerprint` — source fingerprints of declared modules;
* :mod:`repro.exec.cache` — the content-addressed result cache;
* :mod:`repro.exec.registry` — specs collected from ``repro.experiments``;
* :mod:`repro.exec.engine` — cache-then-execute orchestration.
"""

from repro.exec.cache import CacheStats, ResultCache
from repro.exec.engine import Engine, EngineStats
from repro.exec.spec import ExperimentReport, ExperimentSpec, canonical_config

__all__ = [
    "Engine",
    "EngineStats",
    "ExperimentReport",
    "ExperimentSpec",
    "ResultCache",
    "CacheStats",
    "canonical_config",
]
