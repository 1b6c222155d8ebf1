"""Figure 5 — vector-add power and temperature on a K20.

"Power curve shows same gradual increase in first few seconds as sleep
workload with rapid increase after data generation until workload
finishes.  Temperature shows steady increase."  Host-side datagen
occupies the first ~10 s (GPU near idle); the compute plateau sits at
~125-150 W; die temperature climbs from ~40 C toward ~65 C.
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
from repro.workloads.vectoradd import VectorAddWorkload

CAPTURE_S = 100.0


@dataclass(frozen=True)
class Fig5Result:
    """Power + temperature traces and phase metrics."""

    power: TraceSeries
    temperature: TraceSeries
    datagen_mean_w: float
    compute_mean_w: float
    temp_start_c: float
    temp_end_c: float
    temp_monotone_fraction: float


def run(seed: int = 0xF165, interval_s: float = 0.100) -> Fig5Result:
    """Regenerate Figure 5's two series."""
    node, gpu, _ = gpu_node(seed=seed)
    workload = VectorAddWorkload(datagen_seconds=10.0, compute_seconds=85.0,
                                 transfer_seconds=3.0)
    gpu.board.schedule(workload, t_start=0.0)
    session = MoneqSession(
        [NvmlBackend(gpu)], node.events,
        config=MoneqConfig(polling_interval_s=interval_s), node_count=1,
        vfs=node.vfs,
    )
    node.events.run_until(session.t_start + CAPTURE_S)
    result = session.finalize()
    power = result.trace("board_w")
    temperature = result.trace("die_temp_c")

    datagen = power.between(1.0, 9.0)
    compute = power.between(20.0, 90.0)
    # Smoothed monotonicity of the temperature climb during compute.
    temps = temperature.between(15.0, 95.0).values
    diffs = np.diff(np.convolve(temps, np.ones(9) / 9, mode="valid"))
    monotone_fraction = float((diffs > 0).mean()) if len(diffs) else 0.0
    return Fig5Result(
        power=power,
        temperature=temperature,
        datagen_mean_w=datagen.mean(),
        compute_mean_w=compute.mean(),
        temp_start_c=float(temperature.values[0]),
        temp_end_c=float(temperature.values[-1]),
        temp_monotone_fraction=monotone_fraction,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.analysis.figures import ascii_chart

    result = run()
    print(ascii_chart(result.power, width=70, height=12,
                      title="Figure 5: K20 vector-add board power (W)"))
    print()
    print(ascii_chart(result.temperature, width=70, height=8,
                      title="Figure 5: die temperature (C)"))
    print()
    print_block(render(result))


@dataclass(frozen=True)
class Fig5Config:
    seed: int = 0xF165
    interval_s: float = 0.100


def render(result: Fig5Result) -> ExperimentReport:
    """Figure 5's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 5", "K20 vector-add power + temperature",
        [
            ("first ~10 s", "GPU unloaded (host datagen)",
             f"{result.datagen_mean_w:.1f} W"),
            ("compute plateau", "~125-150 W", f"{result.compute_mean_w:.1f} W"),
            ("temperature", "steady climb ~40 -> ~65 C",
             f"{result.temp_start_c:.1f} -> {result.temp_end_c:.1f} C, "
             f"{100 * result.temp_monotone_fraction:.0f} % rising"),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="fig5", title="Figure 5 — K20 vector-add power + temperature",
    module="repro.experiments.fig5", config=Fig5Config(),
)
