"""Compiling packs onto the exec engine, and the one-call runner.

``compile_spec`` turns a raw manifest mapping into an
:class:`~repro.exec.spec.ExperimentSpec` whose module is
:mod:`repro.packs.runtime` — from there the engine's machinery applies
unchanged: content-addressed caching over (manifest text, overrides,
source fingerprint) and byte-stable report blocks.  The experiment id
is ``pack:<name>@<digest>`` with a short digest of the effective
config, so the same pack run twice with different seeds gets two
distinct cache lines, and no pack can shadow a paper experiment's.

``run_pack`` is the front door of ``repro pack run``.  Kind
dispatch:

* ``experiments`` packs run the *named paper experiments directly* —
  no wrapper spec, so ``paper-core`` reproduces ``EXPERIMENTS.md``
  blocks byte-identically and shares their cache lines.
* ``fleet`` packs force the cache off: the sweep is wall-clock timed
  and a cached timing would be a lie.
* ``session``/``chaos`` packs dispatch their compiled spec.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.spec import ExperimentReport, ExperimentSpec, canonical_config
from repro.packs.manifest import SUFFIXES, load_manifest, scenario_from_mapping
from repro.packs.runtime import PackRunConfig
from repro.packs.schema import ScenarioSpec, check_overrides

#: Source modules whose text fingerprints every pack result — broad on
#: purpose: a pack run crosses the session core, the mechanism layer,
#: chaos, the testbeds, and every device family, so editing any of
#: them must invalidate cached pack results.
PACK_SOURCES = (
    "repro.packs",
    "repro.core",
    "repro.mech",
    "repro.chaos",
    "repro.testbeds",
    "repro.workloads",
    "repro.bgq",
    "repro.rapl",
    "repro.nvml",
    "repro.xeonphi",
    "repro.host",
    "repro.fleet",
)

#: The packs ``repro pack run --smoke`` (the CI step) exercises: one
#: live session on the newest mechanism, one chaos story.
SMOKE_PACKS = ("phi-micsmc", "bus_noise")


@dataclass
class PackRunResult:
    """What one ``run_pack`` call produced."""

    spec: ScenarioSpec
    #: Compiled experiment id (empty for ``experiments`` packs, which
    #: run the paper specs under their own ids).
    exp_id: str
    #: exp_id -> rendered block, in the order run.
    blocks: dict[str, ExperimentReport]
    #: exp_id -> raw JSON payload (session/chaos/fleet packs only).
    payloads: dict[str, dict] = field(default_factory=dict)
    stats: object = None


def compile_spec(raw: dict, seed: int | None = None,
                 duration_s: float | None = None,
                 rate: float | None = None,
                 ) -> tuple[ExperimentSpec, ScenarioSpec]:
    """Validate a raw manifest and compile it to an engine spec.

    Returns ``(experiment_spec, scenario_spec)``.  ``experiments``
    packs have no wrapper spec and are rejected here — run them
    through :func:`run_pack`, which dispatches the paper specs.
    """
    from repro.errors import PackError

    scenario = scenario_from_mapping(raw)
    if scenario.kind == "experiments":
        raise PackError(
            f"pack {scenario.name!r}: 'experiments' packs run the "
            f"registered paper specs directly and do not compile")
    check_overrides(scenario.name, seed=seed, duration_s=duration_s,
                    rate=rate)
    config = PackRunConfig(
        manifest=json.dumps(raw, sort_keys=True, separators=(",", ":")),
        seed=scenario.seed if seed is None else seed,
        duration_s=(scenario.duration_s if duration_s is None
                    else duration_s),
        rate=rate,
    )
    digest = hashlib.sha256(
        canonical_config(config).encode()).hexdigest()[:8]
    spec = ExperimentSpec(
        exp_id=f"pack:{scenario.name}@{digest}",
        title=scenario.summary,
        module="repro.packs.runtime",
        config=config,
        seed=config.seed,
        sources=PACK_SOURCES,
    )
    return spec, scenario


def _resolve(name: str) -> dict:
    """A catalog name, or a manifest path (has a suffix or separator)."""
    if name.endswith(SUFFIXES) or "/" in name:
        return load_manifest(Path(name))
    from repro.packs import catalog

    return catalog.raw_pack(name)


def run_pack(name: str | dict, cache: bool = True,
             cache_root: str | None = None, seed: int | None = None,
             duration_s: float | None = None,
             rate: float | None = None) -> PackRunResult:
    """Run one pack through the engine.

    ``name`` is a catalog name, a manifest path, or a raw manifest
    mapping.
    """
    from repro.exec.engine import Engine
    from repro.exec.registry import specs_for
    from repro.obs.instruments import PACK_RUN_SECONDS, PACK_RUNS

    raw = name if isinstance(name, dict) else _resolve(name)
    source = name if isinstance(name, str) else ""
    scenario = scenario_from_mapping(raw, source=source)
    PACK_RUNS.labels(scenario.name, scenario.kind).inc()
    t0 = time.perf_counter()

    if scenario.kind == "experiments":
        engine = Engine(cache=cache, cache_root=cache_root)
        blocks = engine.run(specs_for(list(scenario.experiments)))
        result = PackRunResult(spec=scenario, exp_id="", blocks=blocks,
                               stats=engine.stats)
    else:
        if scenario.kind == "fleet":
            cache = False  # wall-clock timings must never be cached
        spec, scenario = compile_spec(raw, seed=seed,
                                      duration_s=duration_s, rate=rate)
        engine = Engine(cache=cache, cache_root=cache_root)
        blocks = engine.run([spec])
        payload = engine.stats.outcomes[f"{spec.exp_id}:all"].payload
        result = PackRunResult(spec=scenario, exp_id=spec.exp_id,
                               blocks=blocks,
                               payloads={spec.exp_id: payload},
                               stats=engine.stats)

    PACK_RUN_SECONDS.labels(scenario.name).observe(
        time.perf_counter() - t0)
    return result
