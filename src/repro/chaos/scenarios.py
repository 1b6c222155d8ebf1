"""Named chaos scenarios: composed fault plans run against the fleet.

A scenario is a recipe: which :class:`~repro.chaos.faults.FaultRule`
set to install, over which slice of a fleet-wide MonEQ session.  Since
the scenario-pack refactor the catalog is **data**: each recipe is a
``kind = "chaos"`` manifest in the repository's ``packs/`` directory
(``bmc_dark.toml``, ``daemon_wedge.toml``, ``bus_noise.toml`` — the
reliability stories the ROADMAP names), and :data:`SCENARIOS` is
derived from those manifests by :func:`repro.packs.catalog.
chaos_scenarios`.  The recipes themselves are unchanged — the rule
tuples a scenario builds are bit-identical to the hand-written
catalog this module used to carry.

``run_scenario`` executes one catalog scenario through the pack
runtime (:func:`repro.packs.runtime.execute_scenario` — the same code
path ``repro pack run`` compiles onto the exec engine), and returns the
:class:`~repro.packs.runtime.ScenarioRun` whose
:meth:`~repro.packs.runtime.ScenarioRun.summary_line` is byte-stable
for a given (scenario, seed) — the CLI smoke test and the determinism
property suite both pin it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chaos.faults import FaultPlan, FaultRule
from repro.errors import ChaosError
from repro.packs.runtime import ScenarioRun

#: Virtual-time length of a scenario session (the fleet's EMON floor is
#: 0.56 s per tick, so this spans ~21 collection ticks).
DEFAULT_DURATION_S = 12.0
DEFAULT_SEED = 0xC4A05


@dataclass(frozen=True)
class ChaosScenario:
    """One named recipe: fault rules as a function of the run window."""

    name: str
    summary: str
    #: ``rules(duration_s, rate)`` -> the plan's rule tuple.
    rules: Callable[[float, float], tuple[FaultRule, ...]]
    #: Default per-exchange rate where the scenario is rate-shaped.
    default_rate: float = 1.0

    def plan(self, seed: int = DEFAULT_SEED,
             duration_s: float = DEFAULT_DURATION_S,
             rate: float | None = None) -> FaultPlan:
        effective = self.default_rate if rate is None else rate
        return FaultPlan(seed=seed, rules=self.rules(duration_s, effective))


def _load_catalog() -> dict[str, ChaosScenario]:
    # Imported here (not at module top) because the catalog imports
    # this module back for the ChaosScenario class; by the time the
    # call runs, the class above is defined.
    from repro.packs.catalog import chaos_scenarios

    return chaos_scenarios()


#: The chaos catalog, derived from the ``kind = "chaos"`` packs.
SCENARIOS: dict[str, ChaosScenario] = _load_catalog()


#: ``run_scenario``'s result type, under its historical name.
ScenarioResult = ScenarioRun


def run_scenario(name: str, seed: int = DEFAULT_SEED,
                 duration_s: float = DEFAULT_DURATION_S,
                 rate: float | None = None,
                 plan: FaultPlan | None = None) -> ScenarioRun:
    """Run one catalog scenario over a fleet-wide MonEQ session.

    ``plan=None`` builds the scenario's own plan; a caller-supplied
    plan (the zero-rate byte-identity tests pass their own) is the
    session's plan instead.  The session *completes and finalizes*
    whatever the plan does — faulted crossings degrade to dark
    readings, they never raise.  Overrides
    out of the manifest's bounds raise :class:`~repro.errors.PackError`.
    """
    from repro.packs.catalog import load_pack
    from repro.packs.runtime import execute_scenario

    if name not in SCENARIOS:
        raise ChaosError(
            f"unknown chaos scenario {name!r}; have {sorted(SCENARIOS)}")
    return execute_scenario(load_pack(name), seed=seed,
                            duration_s=duration_s, rate=rate, plan=plan)
