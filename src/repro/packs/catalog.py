"""The pack catalog: discovering and loading scenario manifests.

Built-in packs live in the repository's ``packs/`` directory, one
manifest per scenario, named after the file stem.  ``REPRO_PACKS_DIR``
points the catalog somewhere else (tests use it; deployments can ship
their own pack sets) — the override *replaces* the built-in directory,
keeping resolution unambiguous.

The chaos scenario catalog is the chaos-kind packs, read from the
active directory on each call (:func:`chaos_packs`): ``repro chaos
list`` and ``repro chaos run`` see a pack the moment it lands there.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import PackError
from repro.packs.manifest import SUFFIXES, load_manifest, load_scenario
from repro.packs.schema import ScenarioSpec

#: Environment override for the pack directory.
PACKS_DIR_ENV = "REPRO_PACKS_DIR"

#: The repository's built-in pack directory.
_BUILTIN_DIR = Path(__file__).resolve().parents[3] / "packs"

#: The ROADMAP's reliability stories lead the chaos catalog in their
#: narrative order; packs added later follow alphabetically.
_CHAOS_ORDER = ("bmc_dark", "daemon_wedge", "bus_noise")


def packs_dir() -> Path:
    """The active pack directory (built-in unless overridden)."""
    override = os.environ.get(PACKS_DIR_ENV)
    if override:
        return Path(override)
    return _BUILTIN_DIR


def pack_paths() -> dict[str, Path]:
    """Pack name -> manifest path, sorted by name."""
    root = packs_dir()
    if not root.is_dir():
        return {}
    paths: dict[str, Path] = {}
    for path in sorted(root.iterdir()):
        if path.suffix not in SUFFIXES or not path.is_file():
            continue
        if path.stem in paths:
            raise PackError(
                f"pack {path.stem!r}: both {paths[path.stem].name} and "
                f"{path.name} exist in {root}")
        paths[path.stem] = path
    return paths


def pack_path(name: str) -> Path:
    """The manifest path for one named pack; unknown names fail loudly.

    Only the named pack's candidate files are looked at; the whole
    directory is listed only to report a miss or a duplicate stem."""
    root = packs_dir()
    found = [path for path in (root / f"{name}{suffix}"
                               for suffix in SUFFIXES)
             if path.stem == name and path.parent == root
             and path.is_file()]
    if len(found) == 1:
        return found[0]
    paths = pack_paths()  # raises on a duplicate stem
    raise PackError(
        f"pack {name!r}: not in the catalog at {root} "
        f"(have: {', '.join(paths) or 'none'})")


def load_pack(name: str) -> ScenarioSpec:
    """Load and validate one catalog pack by name."""
    return load_scenario(pack_path(name))


def raw_pack(name: str) -> dict:
    """One catalog pack's raw manifest mapping."""
    return load_manifest(pack_path(name))


def all_packs() -> dict[str, ScenarioSpec]:
    """Every catalog pack, validated, sorted by name."""
    return {name: load_scenario(path)
            for name, path in pack_paths().items()}


def chaos_packs() -> dict[str, ScenarioSpec]:
    """The chaos-kind packs, in catalog (story, then name) order."""
    packs = {name: spec for name, spec in all_packs().items()
             if spec.kind == "chaos"}
    ordered = [name for name in _CHAOS_ORDER if name in packs]
    ordered += [name for name in packs if name not in _CHAOS_ORDER]
    return {name: packs[name] for name in ordered}
