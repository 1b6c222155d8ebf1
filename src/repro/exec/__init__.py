"""``repro.exec`` — the experiment execution engine.

Every table/figure/overhead experiment in the repository declares an
:class:`~repro.exec.spec.ExperimentSpec` (id, config dataclass, parts);
the engine runs specs in this process, in spec order, and assembles
their blocks from JSON payloads in registry order.  Nothing is
memoized: every ``python -m repro report`` computes its results, so
the rendered report always matches the code that ran.

Layers, bottom up:

* :mod:`repro.exec.spec` — spec/report dataclasses and config canonicalization;
* :mod:`repro.exec.registry` — the ordered experiment ids, resolved to
  specs on lookup;
* :mod:`repro.exec.engine` — in-process execution and block assembly.
"""

from repro.exec.engine import Engine, EngineStats
from repro.exec.spec import ExperimentReport, ExperimentSpec, canonical_config

__all__ = [
    "Engine",
    "EngineStats",
    "ExperimentReport",
    "ExperimentSpec",
    "canonical_config",
]
