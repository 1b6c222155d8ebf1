"""Figure 8 — summed power of Gaussian elimination on 128 Stampede Phis.

"Sum of power consumption for a Gaussian Elimination workload running
on 128 Xeon Phi cards on Stampede.  Data generation takes place for
about the first 100 seconds.  After which, data is transferred to the
cards and computation begins."  The sum sits near 128 x ~110 W = ~14 kW
during host-side datagen and jumps to ~128 x ~190 W = ~25 kW for the
compute phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.sim.trace import TraceSeries
from repro.testbeds import stampede_slice
from repro.workloads.gaussian import OffloadGaussianWorkload

CARDS = 128
SAMPLE_S = 1.0


@dataclass(frozen=True)
class Fig8Result:
    """The summed-power series and the phase levels."""

    series: TraceSeries
    cards: int
    datagen_mean_w: float
    compute_mean_w: float
    datagen_end_s: float
    compute_start_s: float


def run(seed: int = 0xF168, cards: int = CARDS) -> Fig8Result:
    """Regenerate Figure 8's summed series over ``cards`` cards."""
    cluster = stampede_slice(cards=cards, seed=seed)
    workload = OffloadGaussianWorkload(datagen_seconds=100.0)
    for card in cluster.devices("mic"):
        card.board.schedule(workload, t_start=0.0)
    horizon = workload.duration + 10.0
    times = np.arange(0.0, horizon, SAMPLE_S)
    total = np.zeros_like(times)
    for card in cluster.devices("mic"):
        total += card.true_power(times)
    series = TraceSeries(times, total, name="sum_power", units="W")

    transfer = workload.metadata["transfer_seconds"]
    datagen = series.between(5.0, 95.0)
    compute = series.between(100.0 + transfer + 5.0, workload.duration - 10.0)
    return Fig8Result(
        series=series,
        cards=cards,
        datagen_mean_w=datagen.mean(),
        compute_mean_w=compute.mean(),
        datagen_end_s=100.0,
        compute_start_s=100.0 + transfer,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.analysis.figures import ascii_chart

    result = run()
    print(ascii_chart(result.series, width=70, height=12,
                      title=f"Figure 8: sum power over {result.cards} Phi cards (W)"))
    print()
    print_block(render(result))


@dataclass(frozen=True)
class Fig8Config:
    seed: int = 0xF168
    cards: int = CARDS


def render(result: Fig8Result) -> ExperimentReport:
    """Figure 8's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 8", "Sum power, Gaussian elimination on 128 Stampede Phis",
        [
            ("datagen phase", "~first 100 s, low",
             f"{result.datagen_mean_w / 1e3:.1f} kW"),
            ("compute phase", "rises toward ~25 kW",
             f"{result.compute_mean_w / 1e3:.1f} kW"),
            ("transition", "visible where generation stops",
             f"at {result.compute_start_s:.0f} s, "
             f"{result.compute_mean_w / result.datagen_mean_w:.2f}x jump"),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="fig8", title="Figure 8 — sum power on 128 Stampede Phis",
    module="repro.experiments.fig8", config=Fig8Config(),
)
