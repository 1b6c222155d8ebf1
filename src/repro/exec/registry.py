"""The experiment registry: specs collected from ``repro.experiments``.

Each experiment module declares its own ``SPEC`` (the module knows its
config, seed, and source dependencies); this module gathers them into
the ordered table the engine, the report generator, and the CLI all
share.  Registry order is report order — EXPERIMENTS.md's section
sequence comes from here.  Callers resolve names to specs with
:func:`specs_for` and hand the specs to ``Engine.run``; a compiled
scenario pack is a spec too, so it never needs registering.
"""

from __future__ import annotations

from repro.errors import ExperimentExecutionError
from repro.exec.spec import ExperimentSpec
from repro.experiments import ALL_EXPERIMENTS

ALL_SPECS: dict[str, ExperimentSpec] = {
    name: module.SPEC for name, module in ALL_EXPERIMENTS.items()
}


def get_spec(exp_id: str) -> ExperimentSpec:
    spec = ALL_SPECS.get(exp_id)
    if spec is None:
        raise ExperimentExecutionError(
            f"unknown experiment {exp_id!r}; "
            f"registered: {', '.join(ALL_SPECS)}")
    return spec


def specs_for(exp_ids: list[str] | None = None) -> list[ExperimentSpec]:
    """Specs for ``exp_ids`` in the order given, a repeated id kept once;
    ``None`` selects every experiment in registry order."""
    if exp_ids is None:
        return list(ALL_SPECS.values())
    return [get_spec(exp_id) for exp_id in dict.fromkeys(exp_ids)]
