"""``repro.packs`` — declarative scenario packs over the exec engine.

One manifest (TOML or JSON) declares a whole run — testbed,
mechanisms, phased workload, fault plan, duration, seeds — and the
pack runner compiles it onto the experiment engine, which renders
byte-stable report blocks.  The chaos catalog is a pack consumer too:
chaos scenarios *are* ``kind = "chaos"`` manifests, and ``repro chaos
run`` executes one through
:func:`~repro.packs.runtime.execute_scenario`.

Layering (each layer imports only downward):

``schema``    manifest shape: dataclasses + the strict validator
``manifest``  TOML/JSON decoding into validated scenarios
``catalog``   the ``packs/`` directory; the chaos catalog
``runtime``   live execution + the engine's run_part/render_block
``run``       compile onto the engine; the one-call runner
"""

from repro.packs.catalog import (
    PACKS_DIR_ENV,
    all_packs,
    chaos_packs,
    load_pack,
    pack_path,
    pack_paths,
    packs_dir,
)
from repro.packs.manifest import (
    canonical_manifest,
    load_manifest,
    load_scenario,
    scenario_from_mapping,
)
from repro.packs.run import (
    SMOKE_PACKS,
    PackRunResult,
    compile_spec,
    run_pack,
)
from repro.packs.runtime import (
    PackRunConfig,
    ScenarioRun,
    execute_scenario,
)
from repro.packs.schema import (
    FaultPlanSpec,
    FaultRuleSpec,
    FleetSpec,
    PhaseSpec,
    ScenarioSpec,
    TestbedSpec,
    WorkloadSpec,
    parse_scenario,
)

__all__ = [
    "PACKS_DIR_ENV",
    "SMOKE_PACKS",
    "FaultPlanSpec",
    "FaultRuleSpec",
    "FleetSpec",
    "PackRunConfig",
    "PackRunResult",
    "PhaseSpec",
    "ScenarioRun",
    "ScenarioSpec",
    "TestbedSpec",
    "WorkloadSpec",
    "all_packs",
    "canonical_manifest",
    "chaos_packs",
    "compile_spec",
    "execute_scenario",
    "load_manifest",
    "load_pack",
    "load_scenario",
    "pack_path",
    "pack_paths",
    "packs_dir",
    "parse_scenario",
    "run_pack",
    "scenario_from_mapping",
]
