"""Figure 7 — boxplot of Phi power: SysMgmt API vs MICRAS daemon.

"Boxplot of power data for both the SysMgmt API ('in-band') and daemon
capture methods. ...  while slight, there is a statistically
significant difference between the two collection methods" — because
the in-band query runs code on the card that "wasn't already executing
on the device before the call was made".

Both arms profile the same no-op workload on the same card; only the
collection path changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.boxplot import BoxplotStats, boxplot_stats
from repro.analysis.stats import TTestResult, welch_ttest
from repro.core.moneq.backends import PhiMicrasBackend, PhiSysMgmtBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.testbeds import phi_node
from repro.workloads.noop import PhiNoopWorkload

#: Each arm's capture length and the polling cadence.
ARM_S = 120.0
INTERVAL_S = 1.0


@dataclass(frozen=True)
class Fig7Result:
    """Both arms' samples, their boxplots, and the significance test."""

    api_samples: np.ndarray
    daemon_samples: np.ndarray
    api_box: BoxplotStats
    daemon_box: BoxplotStats
    ttest: TTestResult


def _capture(rig, backend_factory, t_settle: float = 20.0) -> np.ndarray:
    """Run one arm: settle, profile ARM_S of the noop at INTERVAL_S."""
    backend = backend_factory(rig)
    rig.node.events.run_until(rig.node.clock.now + t_settle)
    session = MoneqSession(
        [backend], rig.node.events,
        config=MoneqConfig(polling_interval_s=INTERVAL_S), node_count=1,
        vfs=rig.node.vfs,
    )
    rig.node.events.run_until(session.t_start + ARM_S)
    return session.finalize().trace("card_w").values


def run(seed: int = 0xF167) -> Fig7Result:
    """Regenerate Figure 7: daemon arm first, then the API arm on the
    same card and workload."""
    rig = phi_node(seed=seed)
    rig.card.board.schedule(PhiNoopWorkload(duration=600.0), t_start=0.0)
    daemon = _capture(rig, lambda r: PhiMicrasBackend(r.micras))
    api = _capture(rig, lambda r: PhiSysMgmtBackend(r.sysmgmt))
    return Fig7Result(
        api_samples=api,
        daemon_samples=daemon,
        api_box=boxplot_stats(api),
        daemon_box=boxplot_stats(daemon),
        ttest=welch_ttest(api, daemon),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print("Figure 7: Phi power under the two capture methods")
    for label, box in [("API (in-band)", result.api_box),
                       ("Daemon", result.daemon_box)]:
        print(f"  {label:14s} median={box.median:7.2f} W  "
              f"IQR=[{box.q1:.2f}, {box.q3:.2f}]  "
              f"whiskers=[{box.whisker_low:.2f}, {box.whisker_high:.2f}]")
    print(f"  mean difference: {result.ttest.mean_difference:+.2f} W, "
          f"Welch p={result.ttest.pvalue:.2e} "
          f"(significant: {result.ttest.significant()})")


@dataclass(frozen=True)
class Fig7Config:
    seed: int = 0xF167


def render(result: Fig7Result) -> ExperimentReport:
    """Figure 7's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 7", "Phi power boxplot: SysMgmt API vs daemon",
        "benchmarks/bench_fig7.py",
        [
            ("API median", "~115.5-117 W band", f"{result.api_box.median:.2f} W"),
            ("daemon median", "~113-115 W band", f"{result.daemon_box.median:.2f} W"),
            ("difference", "slight but statistically significant",
             f"{result.ttest.mean_difference:+.2f} W, p={result.ttest.pvalue:.1e}"),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="fig7", title="Figure 7 — Phi power boxplot, API vs daemon",
    module="repro.experiments.fig7", config=Fig7Config(), seed=0xF167,
    sources=("repro.core", "repro.xeonphi", "repro.testbeds",
             "repro.workloads", "repro.host"),
)
