"""Figure 2 — the same MMPS run as seen by MonEQ.

"Power as observed from the data collected by MonEQ across the 7
domains available captured at 560 ms.  The top line represented the
power consumption of the node card.  This data is the same as that
collected from the BPMs, but at a higher sampling frequency" — and,
because MonEQ collects at run time only, "the idle period before and
after the application run is no longer visible".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.compare import Agreement, series_agreement
from repro.bgq.domains import BGQ_DOMAINS
from repro.bgq.machine import BgqMachine
from repro.core.moneq.backends import BgqEmonBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceSeries, TraceSet
from repro.workloads.mmps import MmpsWorkload

BOARD = "R00-M0-N00"


@dataclass(frozen=True)
class Fig2Result:
    """Per-domain traces, the node-card total, and the BPM cross-check."""

    domains: TraceSet
    node_card: TraceSeries
    samples: int
    agreement_with_bpm: Agreement
    idle_samples_present: bool


def run(seed: int = 0xF162, interval_s: float = 0.560,
        duration_s: float = 1500.0) -> Fig2Result:
    """Profile MMPS with MonEQ on one node card at 560 ms."""
    machine = BgqMachine(racks=1, rng=RngRegistry(seed), start_poller=False)
    boards = machine.run_job(MmpsWorkload(duration=duration_s), node_count=32,
                             t_start=0.0)
    board = boards[0]
    session = MoneqSession(
        [BgqEmonBackend(machine.emon(board.location))], machine.events,
        config=MoneqConfig(polling_interval_s=interval_s), node_count=32,
    )
    machine.events.run_until(session.t_start + duration_s)
    result = session.finalize()
    traces = result.traces[board.location]
    node_card = traces["node_card_w"]

    # Cross-check against the BPM's DC-output view of the same board at
    # mid-run (the paper's "matches ... in terms of total power").
    bpm = machine.bpm(board.location)
    mid = duration_s / 2.0
    bpm_series = TraceSeries(
        node_card.times, bpm.output_power_w(node_card.times),
        name="bpm_output", units="W",
    )
    agreement = series_agreement(node_card, bpm_series,
                                 window=(mid - 200.0, mid + 200.0))

    # MonEQ only samples while the session runs with the app: no
    # pre/post idle shelf in the data.
    idle_present = bool(
        (node_card.values < 0.8 * node_card.mean()).sum() > len(node_card) * 0.05
    )
    domain_set = TraceSet({
        spec.domain.value: traces[f"{spec.domain.value}_w"]
        for spec in BGQ_DOMAINS
    })
    return Fig2Result(
        domains=domain_set,
        node_card=node_card,
        samples=len(node_card),
        agreement_with_bpm=agreement,
        idle_samples_present=idle_present,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print(f"Figure 2: MonEQ 7-domain capture at 560 ms ({result.samples} samples)")
    for name in result.domains.names:
        series = result.domains[name]
        print(f"  {name:16s} mean={series.mean():8.1f} W")
    print(f"  node card        mean={result.node_card.mean():8.1f} W")
    print()
    print_block(render(result))


@dataclass(frozen=True)
class Fig2Config:
    seed: int = 0xF162
    interval_s: float = 0.560
    duration_s: float = 1500.0


def render(result: Fig2Result) -> ExperimentReport:
    """Figure 2's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 2", "MMPS via MonEQ: 7 domains at 560 ms",
        [
            ("domains", "7 (chip core largest)",
             f"{len(result.domains)}; largest = "
             f"{max(result.domains.names, key=lambda n: result.domains[n].mean())}"),
            ("total vs BPM", "matches in total power",
             f"{100 * result.agreement_with_bpm.relative_difference:.1f} % apart"),
            ("idle period", "no longer visible",
             f"visible={result.idle_samples_present}"),
            ("data volume", "many more points than BPM",
             f"{result.samples} samples"),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="fig2", title="Figure 2 — MMPS via MonEQ, 7 domains at 560 ms",
    module="repro.experiments.fig2", config=Fig2Config(), seed=0xF162,
    sources=("repro.bgq", "repro.core", "repro.workloads", "repro.store",
             "repro.host"),
)
