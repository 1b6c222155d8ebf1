"""Table III — MonEQ time overhead on Mira at 32/512/1024 nodes.

The toy application runs for exactly the same time regardless of scale;
MonEQ profiles it through the EMON backend at the BG/Q minimum interval
(560 ms).  One agent covers one node card (32 nodes), so the three
scales use 1, 16 and 32 agents.  :func:`render_block` holds the
paper's values beside the measured ones.

Init and collection are scale-(in)sensitive exactly as the paper
argues; finalize jumps once the agent-file count exceeds the I/O
servers.  Total overhead stays ~0.4 % at the 1K scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.bgq.machine import BgqMachine
from repro.core.moneq.backends import BgqEmonBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.overhead import OverheadReport
from repro.core.moneq.session import MoneqSession
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.sim.rng import RngRegistry
from repro.workloads.toy import TABLE3_RUNTIME_S, FixedRuntimeToyWorkload

#: The paper's three scales.
SCALES = (32, 512, 1024)


@dataclass(frozen=True)
class Table3Result:
    """One overhead report per scale."""

    reports: dict[int, OverheadReport]

    def row(self, name: str) -> dict[int, float]:
        return {scale: report.as_table_row()[name]
                for scale, report in self.reports.items()}


def run_scale(node_count: int, seed: int = 0x7AB1E3) -> OverheadReport:
    """Profile the toy app on ``node_count`` nodes of a BG/Q rack."""
    machine = BgqMachine(racks=1, rng=RngRegistry(seed), start_poller=False)
    boards = machine.run_job(FixedRuntimeToyWorkload(), node_count, t_start=0.0)
    backends = [BgqEmonBackend(machine.emon(b.location)) for b in boards]
    session = MoneqSession(
        backends, machine.events,
        config=MoneqConfig(polling_interval_s=0.560),
        node_count=node_count,
    )
    machine.events.run_until(session.t_start + TABLE3_RUNTIME_S)
    return session.finalize().overhead


def run(scales: tuple[int, ...] = SCALES) -> Table3Result:
    """Regenerate Table III."""
    return Table3Result(reports={n: run_scale(n) for n in scales})


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    names = ["Application Runtime", "Time for Initialization",
             "Time for Finalize", "Time for Collection", "Total Time for MonEQ"]
    rows = [[name] + [result.reports[n].as_table_row()[name] for n in SCALES]
            for name in names]
    print(format_table(
        ["(seconds)"] + [f"{n} Nodes" for n in SCALES], rows,
        title="Table III: time overhead for MonEQ on Mira",
    ))
    print()
    print_block(render_block({str(n): _part_payload(report)
                              for n, report in result.reports.items()}))


@dataclass(frozen=True)
class Table3Config:
    """Spec config; one part per node scale shards the heavy run."""

    seed: int = 0x7AB1E3


def _part_payload(report: OverheadReport) -> dict:
    return {
        "rows": report.as_table_row(),
        "percent_of_runtime": report.percent_of_runtime,
    }


def run_part(part: str, config: Table3Config) -> dict:
    """One scale's overhead report, as a JSON payload."""
    return _part_payload(run_scale(int(part), seed=config.seed))


def render_block(parts: dict[str, dict]) -> ExperimentReport:
    """Merge the per-scale parts into Table III's block."""
    paper = {
        "Application Runtime": (202.78, 202.73, 202.74),
        "Time for Initialization": (0.0027, 0.0032, 0.0033),
        "Time for Finalize": (0.1510, 0.1550, 0.3347),
        "Time for Collection": (0.3871, 0.3871, 0.3871),
        "Total Time for MonEQ": (0.5409, 0.5455, 0.7251),
    }
    rows = []
    for name, paper_vals in paper.items():
        rows.append((
            name,
            " / ".join(f"{v:.4f}" for v in paper_vals),
            " / ".join(f"{parts[str(n)]['rows'][name]:.4f}" for n in SCALES),
        ))
    rows.append(("total overhead @1K", "~0.4 % of runtime",
                 f"{parts['1024']['percent_of_runtime']:.2f} %"))
    return ExperimentReport(
        "Table III", "MonEQ time overhead on Mira (32/512/1024 nodes, s)", rows,
    )


SPEC = ExperimentSpec(
    exp_id="table3", title="Table III — MonEQ time overhead on Mira",
    module="repro.experiments.table3", config=Table3Config(),
    parts=("1024", "512", "32"),
)
