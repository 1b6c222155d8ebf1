"""Experiment specs and the rendered report block they produce.

An :class:`ExperimentSpec` is the declarative unit the engine runs:
which module runs, with which (frozen dataclass) config, split into
which parts.  The spec deliberately carries no callables: the engine
imports ``spec.module`` and uses the module-level contract instead,
which keeps a spec plain data.

Module contract (duck-typed, checked by the engine):

* ``run(**config)`` + ``render(result) -> ExperimentReport`` — the
  common single-part case; the engine runs both and keeps the rendered
  block as a JSON payload.
* ``run_part(part, config) -> dict`` + ``render_block(parts) ->
  ExperimentReport`` — multi-part experiments (``spec.parts``) whose
  independent shards run as separate tasks and are merged into one
  block after the fact (Table III runs its three node scales this way).

Payloads must be JSON-serializable, so a result can be diffed and
exported as it is.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.errors import ConfigError

@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's paper-vs-measured block."""

    exp_id: str
    title: str
    rows: list[tuple[str, str, str]]  # (quantity, paper, measured)
    notes: str = ""

    def to_dict(self) -> dict:
        """JSON-safe payload; inverse of :meth:`from_dict`."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> ExperimentReport:
        return cls(
            exp_id=payload["exp_id"],
            title=payload["title"],
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
        Frozen dataclass of ``run()`` keyword arguments (``None``: the
        module's ``run()`` takes none).
    parts:
        Independent shards of the experiment.  Each part is one task;
        most experiments have one.
    """

    exp_id: str
    title: str
    module: str
    config: object
    parts: tuple[str, ...] = ("all",)

    def __post_init__(self):
        if not self.parts:
            raise ConfigError(f"spec {self.exp_id!r} declares no parts")
        if self.config is not None and not dataclasses.is_dataclass(self.config):
            raise ConfigError(
                f"spec {self.exp_id!r} config must be a dataclass, "
                f"got {type(self.config).__name__}"
            )


@dataclass
class TaskOutcome:
    """What came back for one task: its payload, or why it failed."""

    task_id: str
    payload: dict | None = None
    wall_s: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.payload is not None


def canonical_config(config: object) -> str:
    """Stable JSON text of a config dataclass (``{}`` for ``None``).

    Key order is sorted and separators are fixed, so the same logical
    config always gives the same text.  Fields declared
    ``compare=False`` are derived from the others, not part of the
    config's identity, and are left out.
    """
    if config is None:
        return "{}"
    if not dataclasses.is_dataclass(config):
        raise ConfigError(
            f"config must be a dataclass or None, got {type(config).__name__}"
        )
    identity = {field.name: getattr(config, field.name)
                for field in dataclasses.fields(config) if field.compare}
    # A nested dataclass serializes as its field dict, as asdict() gives.
    return json.dumps(identity, default=dataclasses.asdict, sort_keys=True,
                      separators=(",", ":"))


def config_kwargs(config: object) -> dict:
    """``run(**kwargs)`` view of a config dataclass."""
    if config is None:
        return {}
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)}


# Re-exported for dataclass definitions in experiment modules.
__all__ = [
    "ExperimentReport",
    "ExperimentSpec",
    "TaskOutcome",
    "canonical_config",
    "config_kwargs",
    "dataclass",
    "field",
]
