"""Figure 4 — NOOP workload power on a K20 at 100 ms.

"Power consumption of a NOOP workload on a NVIDIA K20 GPU captured at
100 ms.  Shows gradual increase until finally leveling off and staying
there for the rest of the time."  The ramp takes ~5 s; the level is
~55 W from a ~44-46 W start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.moneq.backends import NvmlBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.sim.trace import TraceSeries
from repro.testbeds import gpu_node
from repro.workloads.noop import GpuNoopWorkload

CAPTURE_S = 12.5


@dataclass(frozen=True)
class Fig4Result:
    """The board-power trace plus ramp shape metrics."""

    series: TraceSeries
    start_w: float
    level_w: float
    time_to_level_s: float


def run(seed: int = 0xF164, interval_s: float = 0.100) -> Fig4Result:
    """Regenerate Figure 4's series."""
    node, gpu, _ = gpu_node(seed=seed)
    gpu.board.schedule(GpuNoopWorkload(duration=CAPTURE_S), t_start=0.0)
    session = MoneqSession(
        [NvmlBackend(gpu)], node.events,
        config=MoneqConfig(polling_interval_s=interval_s), node_count=1,
        vfs=node.vfs,
    )
    node.events.run_until(session.t_start + CAPTURE_S)
    series = session.finalize().trace("board_w")

    level = float(np.median(series.between(8.0, CAPTURE_S).values))
    start = float(series.values[0])
    # Time to reach 95% of the rise (smoothed against the +/-5 W noise).
    window = 5
    smooth = np.convolve(series.values, np.ones(window) / window, mode="valid")
    smooth_times = series.times[window - 1:]
    target = start + 0.95 * (level - start)
    above = np.nonzero(smooth >= target)[0]
    time_to_level = float(smooth_times[above[0]]) if len(above) else float("inf")
    return Fig4Result(series=series, start_w=start, level_w=level,
                      time_to_level_s=time_to_level)


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.analysis.figures import ascii_chart

    result = run()
    print(ascii_chart(result.series, width=70, height=12,
                      title="Figure 4: K20 NOOP board power (W) vs time"))
    print()
    print_block(render(result))


@dataclass(frozen=True)
class Fig4Config:
    seed: int = 0xF164
    interval_s: float = 0.100


def render(result: Fig4Result) -> ExperimentReport:
    """Figure 4's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 4", "K20 NOOP power ramp (100 ms)",
        [
            ("start -> level", "~44-46 -> ~55 W",
             f"{result.start_w:.1f} -> {result.level_w:.1f} W"),
            ("ramp duration", "~5 s", f"{result.time_to_level_s:.1f} s"),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="fig4", title="Figure 4 — K20 NOOP power ramp",
    module="repro.experiments.fig4", config=Fig4Config(), seed=0xF164,
    sources=("repro.core", "repro.nvml", "repro.testbeds",
             "repro.workloads", "repro.host"),
)
