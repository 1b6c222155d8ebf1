"""Figure 3 — RAPL package power of Gaussian elimination at 100 ms.

"Power consumption of a Gaussian Elimination workload captured at
100 ms for the whole CPU package.  Capture started before and
terminated after program execution."  The notable features: the idle
shelf on both ends, the ~45-50 W plateau, "the rhythmic drop of about
5 Watts in power consumption throughout the execution", and "between
these drops there are tiny spikes in power at regular intervals".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.moneq.backends import RaplMsrBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.sim.trace import TraceSeries
from repro.testbeds import rapl_node
from repro.workloads.gaussian import GaussianEliminationWorkload

#: Capture geometry: idle head, ~52 s workload, idle tail (~70 s total).
WORKLOAD_START_S = 8.0
CAPTURE_S = 70.0


@dataclass(frozen=True)
class Fig3Result:
    """The pkg trace plus the three structural observations."""

    series: TraceSeries
    idle_head_w: float
    idle_tail_w: float
    plateau_w: float
    drop_depth_w: float
    drop_period_s: float
    spike_height_w: float


def run(seed: int = 0xF163, interval_s: float = 0.100) -> Fig3Result:
    """Regenerate Figure 3's series."""
    workload = GaussianEliminationWorkload(n=12_000, gflops=22.0, sync_period=5.0)
    node, _ = rapl_node(seed=seed, workload=workload,
                        workload_start=WORKLOAD_START_S)
    package = node.device("cpu")
    session = MoneqSession(
        [RaplMsrBackend(package, label="pkg0")], node.events,
        config=MoneqConfig(polling_interval_s=interval_s), node_count=1,
        vfs=node.vfs,
    )
    node.events.run_until(session.t_start + CAPTURE_S)
    trace = session.finalize().trace("pkg_w")
    # Drop the first sample (no previous counter to difference against).
    series = TraceSeries(trace.times[1:], trace.values[1:], "pkg_w", "W")

    t_end = WORKLOAD_START_S + workload.duration
    head = series.between(1.0, WORKLOAD_START_S - 1.0)
    tail = series.between(t_end + 2.0, CAPTURE_S - 1.0)
    busy = series.between(WORKLOAD_START_S + 2.0, t_end - 2.0)
    # Plateau vs drop: the top and bottom deciles of the busy window.
    plateau = float(np.percentile(busy.values, 80.0))
    trough = float(np.percentile(busy.values, 3.0))
    # Spike height: max above the plateau.
    spike = float(busy.values.max() - plateau)
    return Fig3Result(
        series=series,
        idle_head_w=head.mean(),
        idle_tail_w=tail.mean(),
        plateau_w=plateau,
        drop_depth_w=plateau - trough,
        drop_period_s=workload.metadata["sync_period"],
        spike_height_w=spike,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.analysis.figures import ascii_chart

    result = run()
    print(ascii_chart(result.series, width=70, height=14,
                      title="Figure 3: RAPL package power (W) vs time"))
    print()
    print_block(render(result))


@dataclass(frozen=True)
class Fig3Config:
    seed: int = 0xF163
    interval_s: float = 0.100


def render(result: Fig3Result) -> ExperimentReport:
    """Figure 3's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 3", "RAPL package power of Gaussian elimination (100 ms)",
        [
            ("idle shelf", "visible both ends",
             f"head {result.idle_head_w:.1f} W / tail {result.idle_tail_w:.1f} W"),
            ("plateau", "~45-50 W", f"{result.plateau_w:.1f} W"),
            ("rhythmic drop", "~5 W", f"{result.drop_depth_w:.1f} W "
             f"every {result.drop_period_s:.1f} s"),
            ("tiny spikes", "between drops", f"+{result.spike_height_w:.1f} W"),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="fig3", title="Figure 3 — RAPL package power, Gaussian elimination",
    module="repro.experiments.fig3", config=Fig3Config(),
)
