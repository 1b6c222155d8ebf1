"""Figure 1 — MMPS power as seen from the bulk power supplies.

"Power as observed from the data collected at the bulk power supplies.
The idle period before and after the job is clearly observable."  The
environmental database polls every ~4 minutes; the job (MMPS) runs for
25 minutes in the middle of a 45-minute capture window, so a handful of
coarse samples show the 800 W idle shelf, the ~1700 W plateau, and the
return to idle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.compare import (
    IdleVisibility,
    idle_visibility,
    series_from_readings,
)
from repro.bgq.machine import BgqMachine
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceSeries
from repro.workloads.mmps import MmpsWorkload

#: Experiment geometry.
JOB_START_S = 600.0
JOB_DURATION_S = 1500.0
WINDOW_S = 2700.0
BOARD = "R00-M0-N00"


@dataclass(frozen=True)
class Fig1Result:
    """The BPM input-power series plus the headline observations."""

    series: TraceSeries
    idle: IdleVisibility
    samples: int
    poll_interval_s: float


def run(seed: int = 0xF161, poll_interval_s: float = 240.0) -> Fig1Result:
    """Regenerate Figure 1's series from the environmental database."""
    machine = BgqMachine(racks=1, rng=RngRegistry(seed),
                         poll_interval_s=poll_interval_s)
    machine.run_job(MmpsWorkload(duration=JOB_DURATION_S), node_count=32,
                    t_start=JOB_START_S)
    machine.advance_to(WINDOW_S)
    readings = machine.envdb.range_readings("bpm", 0.0, WINDOW_S, BOARD)
    series = series_from_readings(readings, "input_power_w",
                                  name="bpm_input_power", units="W")
    return Fig1Result(
        series=series,
        idle=idle_visibility(series),
        samples=len(series),
        poll_interval_s=poll_interval_s,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print("Figure 1: MMPS power at the bulk power modules "
          f"({result.samples} samples at {result.poll_interval_s:.0f} s)")
    for t, w in result.series.to_rows():
        print(f"  t={t:7.1f} s  input={w:8.1f} W")
    print()
    print_block(render(result))


@dataclass(frozen=True)
class Fig1Config:
    seed: int = 0xF161
    poll_interval_s: float = 240.0


def render(result: Fig1Result) -> ExperimentReport:
    """Figure 1's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 1", "MMPS power at the bulk power modules",
        [
            ("idle shelf", "~800 W, visible before/after job",
             f"{result.idle.idle_level:.0f} W, visible={result.idle.visible}"),
            ("job plateau", "~1600-1800 W", f"{result.idle.active_level:.0f} W"),
            ("samples", "handful at ~4-5 min spacing",
             f"{result.samples} at {result.poll_interval_s:.0f} s"),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="fig1", title="Figure 1 — MMPS power at the bulk power modules",
    module="repro.experiments.fig1", config=Fig1Config(), seed=0xF161,
    sources=("repro.bgq", "repro.workloads", "repro.store", "repro.host"),
)
