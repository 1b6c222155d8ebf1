"""RAPL counter-overflow demonstration (§II-B text).

"These registers can 'overfill' if they are not read frequently enough,
so a sampling of more than about 60 seconds will result in erroneous
data."  The 32-bit counter in 2^-16 J units wraps after 65,536 J —
65.5 s at 1 kW.  The experiment sweeps the sampling interval and
reports the decoded-vs-true energy error on a synthetic 1 kW load,
showing the cliff at the wrap period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.sim.sensor import CounterSensor
from repro.sim.signals import ConstantSignal
from repro.units import RAPL_ENERGY_UNIT_J

#: The synthetic load: a kilowatt makes the wrap land at the paper's
#: "about 60 seconds".
LOAD_W = 1000.0
INTERVALS_S = (0.06, 1.0, 10.0, 30.0, 60.0, 65.0, 70.0, 120.0, 300.0)


@dataclass(frozen=True)
class OverflowPoint:
    """One sampling interval's decoded accuracy."""

    interval_s: float
    true_j: float
    decoded_j: float

    @property
    def relative_error(self) -> float:
        return abs(self.decoded_j - self.true_j) / self.true_j


@dataclass(frozen=True)
class OverflowResult:
    points: list[OverflowPoint]
    wrap_period_s: float

    def max_safe_interval(self, tolerance: float = 0.01) -> float:
        """Largest swept interval still within tolerance."""
        safe = [p.interval_s for p in self.points if p.relative_error <= tolerance]
        return max(safe) if safe else 0.0


def run(intervals: tuple[float, ...] = INTERVALS_S) -> OverflowResult:
    """Sweep sampling intervals over a constant 1 kW load."""
    counter = CounterSensor(
        ConstantSignal(LOAD_W), unit=RAPL_ENERGY_UNIT_J,
        width_bits=32, update_interval=1e-3, dt=1e-2,
    )
    points = []
    for interval in intervals:
        # Integrate over ten intervals via consecutive decoded deltas.
        decoded = sum(
            counter.delta(k * interval, (k + 1) * interval) for k in range(10)
        )
        true = LOAD_W * interval * 10
        points.append(OverflowPoint(interval, true, decoded))
    return OverflowResult(points=points,
                          wrap_period_s=counter.wrap_period(LOAD_W))


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    rows = [[p.interval_s, p.true_j, p.decoded_j, 100 * p.relative_error]
            for p in result.points]
    print(format_table(
        ["interval (s)", "true (J)", "decoded (J)", "error (%)"], rows,
        title=f"RAPL 32-bit counter at {LOAD_W:.0f} W "
              f"(wrap period {result.wrap_period_s:.1f} s)",
        float_format="{:.2f}",
    ))
    print()
    print_block(render(result))


@dataclass(frozen=True)
class OverflowConfig:
    intervals: tuple[float, ...] = INTERVALS_S


def render(result: OverflowResult) -> ExperimentReport:
    """The RAPL-overflow block (§II-B text)."""
    bad = [p for p in result.points if p.interval_s >= 70.0]
    return ExperimentReport(
        "§II-B text", "RAPL counter overflow past ~60 s sampling",
        [
            ("wrap period @1 kW", "'about 60 seconds'",
             f"{result.wrap_period_s:.1f} s"),
            ("<= 65 s sampling", "accurate", "max error "
             f"{max(p.relative_error for p in result.points if p.interval_s <= 65.0):.2%}"),
            (">= 70 s sampling", "erroneous data",
             "errors " + ", ".join(f"{p.relative_error:.0%}" for p in bad)),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="rapl_overflow", title="§II-B — RAPL counter overflow",
    module="repro.experiments.rapl_overflow", config=OverflowConfig(), seed=0,
    sources=("repro.rapl", "repro.units"),
)
