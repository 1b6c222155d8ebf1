"""``repro.api.packs`` — declarative scenario packs.

Manifest loading and validation (:func:`load_scenario`,
:func:`parse_scenario`), the pack catalog (:func:`all_packs`,
:func:`load_pack`, and :func:`chaos_packs`, the chaos scenarios that
:func:`execute_scenario` runs live), and the runner that compiles a
pack onto the experiment engine (:func:`run_pack`, :func:`compile_spec`).
Validation failures raise :class:`repro.api.errors.PackError`, always
naming the offending manifest field.
"""

from __future__ import annotations

from repro.packs import (
    SMOKE_PACKS,
    PackRunResult,
    ScenarioRun,
    ScenarioSpec,
    all_packs,
    canonical_manifest,
    chaos_packs,
    compile_spec,
    execute_scenario,
    load_manifest,
    load_pack,
    load_scenario,
    packs_dir,
    parse_scenario,
    run_pack,
    scenario_from_mapping,
)

__all__ = [
    "SMOKE_PACKS",
    "PackRunResult",
    "ScenarioRun",
    "ScenarioSpec",
    "all_packs",
    "canonical_manifest",
    "chaos_packs",
    "compile_spec",
    "execute_scenario",
    "load_manifest",
    "load_pack",
    "load_scenario",
    "packs_dir",
    "parse_scenario",
    "run_pack",
    "scenario_from_mapping",
]
