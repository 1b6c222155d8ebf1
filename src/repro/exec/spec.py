"""Experiment specs and the rendered report block they produce.

An :class:`ExperimentSpec` is the declarative unit the engine schedules:
which module runs, with which (frozen dataclass) config, under which
deterministic seed, and which source modules its results depend on.
Execution is content-addressed — ``(exp_id, canonical config, source
fingerprint)`` names a result — so the spec deliberately carries no
callables: the engine imports ``spec.module`` and uses the module-level
contract instead, which keeps a spec plain data that the cache key can
digest.

Module contract (duck-typed, checked by the engine):

* ``run(**config)`` + ``render(result) -> ExperimentReport`` — the
  common single-part case; the engine runs both and keeps the rendered
  block as a JSON payload.
* ``run_part(part, config) -> dict`` + ``render_block(parts) ->
  ExperimentReport`` — multi-part experiments (``spec.parts``) whose
  independent shards are cached individually and merged into one
  block after the fact (Table III runs its three node scales this way).

Payloads must be JSON-serializable: that is what makes results
cacheable, diffable, and byte-stable across cache states.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Source modules every experiment depends on regardless of platform:
#: the simulation substrate, the device models, the analysis helpers,
#: and this rendering contract itself.
BASE_SOURCES = (
    "repro.sim",
    "repro.devices",
    "repro.analysis",
    "repro.exec.spec",
)


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's paper-vs-measured block."""

    exp_id: str
    title: str
    bench: str
    rows: list[tuple[str, str, str]]  # (quantity, paper, measured)
    notes: str = ""

    def to_dict(self) -> dict:
        """JSON-safe payload; inverse of :meth:`from_dict`."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "bench": self.bench,
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> ExperimentReport:
        return cls(
            exp_id=payload["exp_id"],
            title=payload["title"],
            bench=payload["bench"],
            rows=[tuple(row) for row in payload["rows"]],
            notes=payload.get("notes", ""),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one registered experiment.

    Parameters
    ----------
    exp_id:
        Registry key (``"fig1"``, ``"table3"``, …) — also the CLI name.
    title:
        Human-readable one-liner for listings.
    module:
        Import path of the experiment module implementing the contract.
    config:
        Frozen dataclass of ``run()`` keyword arguments.  Canonicalized
        into the cache key, so any field change invalidates results.
    seed:
        Deterministic per-experiment seed; the engine folds it with the
        part name so results never depend on what ran before.
    sources:
        Modules/packages whose source text fingerprints the result.
        Editing any of them invalidates the cache entry.
    parts:
        Independent shards of the experiment.  Each part is one work
        unit (one task, one cache entry); most experiments have one.
    """

    exp_id: str
    title: str
    module: str
    config: object
    seed: int
    sources: tuple[str, ...]
    parts: tuple[str, ...] = ("all",)

    def __post_init__(self):
        if not self.parts:
            raise ConfigError(f"spec {self.exp_id!r} declares no parts")
        if self.config is not None and not dataclasses.is_dataclass(self.config):
            raise ConfigError(
                f"spec {self.exp_id!r} config must be a dataclass, "
                f"got {type(self.config).__name__}"
            )

    def all_sources(self) -> tuple[str, ...]:
        """Declared sources plus the experiment module itself."""
        names = dict.fromkeys((self.module, *BASE_SOURCES, *self.sources))
        return tuple(names)


@dataclass
class TaskOutcome:
    """What came back for one task — from the cache or a fresh run."""

    task_id: str
    payload: dict | None = None
    cached: bool = False
    wall_s: float = 0.0
    error: str = ""
    digest: str = ""

    @property
    def ok(self) -> bool:
        return self.payload is not None


def canonical_config(config: object) -> str:
    """Stable JSON text of a config dataclass (``{}`` for ``None``).

    Key order is sorted and separators are fixed, so the same logical
    config always digests identically.
    """
    if config is None:
        return "{}"
    if not dataclasses.is_dataclass(config):
        raise ConfigError(
            f"config must be a dataclass or None, got {type(config).__name__}"
        )
    return json.dumps(dataclasses.asdict(config), sort_keys=True,
                      separators=(",", ":"))


def config_kwargs(config: object) -> dict:
    """``run(**kwargs)`` view of a config dataclass."""
    if config is None:
        return {}
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)}


# Re-exported for dataclass definitions in experiment modules.
__all__ = [
    "BASE_SOURCES",
    "ExperimentReport",
    "ExperimentSpec",
    "TaskOutcome",
    "canonical_config",
    "config_kwargs",
    "dataclass",
    "field",
]
