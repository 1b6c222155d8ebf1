"""Table II — the list of available RAPL sensors (domains)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.rapl.domains import RAPL_DOMAIN_TABLE
from repro.rapl.msr import ENERGY_STATUS_MSR
from repro.rapl.package import SANDY_BRIDGE, CpuPackage
from repro.rapl.domains import RaplDomain
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class Table2Result:
    """Table II rows plus a liveness check of each domain's MSR."""

    rows: list[tuple[str, str]]
    msr_addresses: dict[str, int]
    live_counters: dict[str, bool]


def run() -> Table2Result:
    """Regenerate Table II and verify each domain's energy-status MSR
    actually responds on a simulated package."""
    package = CpuPackage(SANDY_BRIDGE, rng=RngRegistry(1))
    rows = [(info.long_name, info.description) for info in RAPL_DOMAIN_TABLE]
    addresses = {d.value: ENERGY_STATUS_MSR[d] for d in RaplDomain}
    live = {}
    for domain in RaplDomain:
        raw0 = package.energy_raw(domain, 1.0)
        raw1 = package.energy_raw(domain, 5.0)
        # PKG/PP0/DRAM tick even at idle; PP1 legitimately sits at 0 on
        # servers but the register still answers.
        live[domain.value] = raw1 >= raw0
    return Table2Result(rows=rows, msr_addresses=addresses, live_counters=live)


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print(format_table(
        ["Domain", "Description"], result.rows,
        title="Table II: available RAPL sensors",
    ))
    print(f"\nEnergy-status MSRs: "
          f"{ {k: hex(v) for k, v in result.msr_addresses.items()} }")
    print(f"Counters responding: {result.live_counters}")


def render(result: Table2Result) -> ExperimentReport:
    """Table II's paper-vs-measured block."""
    return ExperimentReport(
        "Table II", "Available RAPL sensors", "benchmarks/bench_table2.py",
        [
            ("domains", "PKG, PP0, PP1, DRAM",
             ", ".join(r[0] for r in result.rows)),
            ("counters live", "(implied)", str(all(result.live_counters.values()))),
        ],
    )


SPEC = ExperimentSpec(
    exp_id="table2", title="Table II — available RAPL sensors",
    module="repro.experiments.table2", config=None, seed=0,
    sources=("repro.rapl", "repro.host"),
)
