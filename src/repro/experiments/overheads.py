"""The per-query overhead survey (§II running text).

The regeneration *measures* each mechanism's per-query cost on the
simulators by timing a query's effect on the virtual clock, rather than
quoting the constants; :func:`render` holds the paper's values beside
the measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.bgq.machine import BgqMachine
from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.experiments.report import print_block
from repro.host.permissions import ROOT
from repro.rapl.driver import read_msr_userspace
from repro.rapl.msr import MSR_PKG_ENERGY_STATUS
from repro.sim.rng import RngRegistry
from repro.testbeds import gpu_node, phi_node, rapl_node


@dataclass(frozen=True)
class MechanismCost:
    """One mechanism's measured per-query latency and duty overhead."""

    mechanism: str
    per_query_s: float
    poll_interval_s: float

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.per_query_s / self.poll_interval_s


@dataclass(frozen=True)
class OverheadsResult:
    costs: dict[str, MechanismCost]

    def ordering(self) -> list[str]:
        """Mechanisms sorted cheapest-first."""
        return sorted(self.costs, key=lambda m: self.costs[m].per_query_s)


def _timed(clock, fn) -> float:
    t0 = clock.now
    fn()
    return clock.now - t0


def run(seed: int = 0x0EAD) -> OverheadsResult:
    """Measure each mechanism's per-query cost on the simulators."""
    costs: dict[str, MechanismCost] = {}

    # BG/Q EMON.
    machine = BgqMachine(racks=1, rng=RngRegistry(seed), start_poller=False)
    machine.clock.advance(1.0)
    emon = machine.emon("R00-M0-N00")
    cost = _timed(machine.clock, lambda: emon.collect())
    costs["bgq-emon"] = MechanismCost("BG/Q EMON", cost, 0.560)

    # RAPL via the msr chardev.
    node, _ = rapl_node(seed=seed)
    node.clock.advance(1.0)
    cost = _timed(node.clock,
                  lambda: read_msr_userspace(node, 0, MSR_PKG_ENERGY_STATUS, ROOT))
    costs["rapl-msr"] = MechanismCost("RAPL via MSR", cost, 0.060)

    # NVML.
    gnode, _, nvml = gpu_node(seed=seed)
    handle = nvml.device_get_handle_by_index(0)
    gnode.clock.advance(1.0)
    cost = _timed(gnode.clock, lambda: nvml.device_get_power_usage(handle))
    costs["nvml"] = MechanismCost("NVML", cost, 0.100)

    # Phi: both paths on one rig.
    rig = phi_node(seed=seed)
    rig.node.clock.advance(1.0)
    cost = _timed(rig.node.clock, rig.sysmgmt.query_power_w)
    costs["phi-sysmgmt"] = MechanismCost("Phi SysMgmt API", cost, 0.100)
    cost = _timed(rig.node.clock, lambda: rig.micras.read("power"))
    costs["phi-micras"] = MechanismCost("Phi MICRAS daemon", cost, 0.050)

    return OverheadsResult(costs=costs)


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    rows = [
        [c.mechanism, 1000.0 * c.per_query_s, c.poll_interval_s, c.overhead_percent]
        for c in result.costs.values()
    ]
    print(format_table(
        ["Mechanism", "per query (ms)", "poll (s)", "overhead (%)"], rows,
        title="Per-query collection overheads (measured on the simulators)",
        float_format="{:.3f}",
    ))
    print(f"\ncheapest-first: {result.ordering()}")
    print()
    print_block(render(result))


@dataclass(frozen=True)
class OverheadsConfig:
    seed: int = 0x0EAD


def render(result: OverheadsResult) -> ExperimentReport:
    """The per-query overhead block (§II text)."""
    paper_ms = {"bgq-emon": 1.10, "rapl-msr": 0.03, "nvml": 1.3,
                "phi-sysmgmt": 14.2, "phi-micras": 0.04}
    rows = [
        (result.costs[key].mechanism, f"{paper_ms[key]} ms",
         f"{1000 * result.costs[key].per_query_s:.3f} ms")
        for key in paper_ms
    ]
    rows.append(("duty overheads", "BG/Q 0.19 %, NVML 1.25 %, Phi API ~14 %",
                 f"BG/Q {result.costs['bgq-emon'].overhead_percent:.2f} %, "
                 f"NVML {result.costs['nvml'].overhead_percent:.2f} %, "
                 f"Phi API {result.costs['phi-sysmgmt'].overhead_percent:.1f} %"))
    return ExperimentReport(
        "§II text", "Per-query collection overheads",
        rows,
    )


SPEC = ExperimentSpec(
    exp_id="overheads", title="§II — per-query collection overheads",
    module="repro.experiments.overheads", config=OverheadsConfig(),
)
