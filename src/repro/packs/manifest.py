"""Loading scenario-pack manifests from TOML or JSON files.

TOML is the authoring format (the seeded ``packs/*.toml`` catalog);
JSON is accepted too because it round-trips through the engine's
canonical-config machinery and makes programmatic manifest generation
trivial.  Parsing is two steps — decode the file, then validate the
mapping through :func:`repro.packs.schema.parse_scenario` — so every
shape error carries the manifest path and the offending dotted field.
"""

from __future__ import annotations

import json
import tomllib
from pathlib import Path

from repro.errors import PackError
from repro.packs.schema import ScenarioSpec, parse_scenario

#: Manifest suffixes the loader understands.
SUFFIXES = (".toml", ".json")


def load_manifest(path: str | Path) -> dict:
    """Decode one manifest file into its raw mapping (no validation)."""
    path = Path(path)
    if path.suffix not in SUFFIXES:
        raise PackError(
            f"pack manifest {str(path)!r}: unsupported suffix "
            f"{path.suffix!r} (expected one of {', '.join(SUFFIXES)})")
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise PackError(f"pack manifest {str(path)!r}: {exc}") from exc
    try:
        if path.suffix == ".toml":
            data = tomllib.loads(raw.decode("utf-8"))
        else:
            data = json.loads(raw.decode("utf-8"))
    except (tomllib.TOMLDecodeError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        raise PackError(f"pack manifest {str(path)!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise PackError(
            f"pack manifest {str(path)!r}: root must be a table, "
            f"got {type(data).__name__}")
    return data


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate one manifest file into a :class:`ScenarioSpec`."""
    path = Path(path)
    spec = parse_scenario(load_manifest(path), source=path.name)
    if spec.name != path.stem:
        raise PackError(
            f"pack {spec.name!r} ({path.name}): manifest name must match "
            f"the file stem {path.stem!r}")
    return spec


def scenario_from_mapping(data: dict, source: str = "") -> ScenarioSpec:
    """Validate an in-memory mapping (tests and programmatic callers)."""
    return parse_scenario(data, source=source)


def canonical_manifest(spec: ScenarioSpec) -> str:
    """Stable JSON text of a validated scenario.  ``source`` is
    excluded: the same scenario loaded from two paths is the same
    scenario."""
    import dataclasses

    payload = dataclasses.asdict(spec)
    payload.pop("source", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
