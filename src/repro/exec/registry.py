"""The experiment registry: one ordered table of experiment ids.

Each experiment module ``repro.experiments.<id>`` declares its own
``SPEC`` (the module knows its config, seed, and source dependencies);
this module names the ids, in the order the engine, the report
generator, and the CLI all share, and imports a module only when its
spec is first looked up — listing or validating names loads no
experiment.  Registry order is report order — EXPERIMENTS.md's section
sequence comes from here.  Callers resolve names to specs with
:func:`specs_for` and hand the specs to ``Engine.run``; a compiled
scenario pack is a spec too, so it never needs registering.
"""

from __future__ import annotations

import importlib

from repro.errors import ExperimentExecutionError
from repro.exec.spec import ExperimentSpec

EXPERIMENT_IDS: tuple[str, ...] = (
    "table1", "table2", "table3",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "overheads", "rapl_overflow",
)


def experiment_module(exp_id: str):
    """The ``repro.experiments.<exp_id>`` module, imported on first use."""
    if exp_id not in EXPERIMENT_IDS:
        raise ExperimentExecutionError(
            f"unknown experiment {exp_id!r}; "
            f"registered: {', '.join(EXPERIMENT_IDS)}")
    return importlib.import_module(f"repro.experiments.{exp_id}")


def get_spec(exp_id: str) -> ExperimentSpec:
    return experiment_module(exp_id).SPEC


def specs_for(exp_ids: list[str] | None = None) -> list[ExperimentSpec]:
    """Specs for ``exp_ids`` in the order given, a repeated id kept once;
    ``None`` selects every experiment in registry order."""
    if exp_ids is None:
        exp_ids = list(EXPERIMENT_IDS)
    return [get_spec(exp_id) for exp_id in dict.fromkeys(exp_ids)]
