"""Table I — the cross-platform sensor availability matrix."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.capability import (
    PLATFORM_ORDER,
    TABLE1_ROWS,
    Availability,
    capability_matrix,
    render_capability_table,
    universal_rows,
)
from repro.exec.spec import ExperimentReport, ExperimentSpec


@dataclass(frozen=True)
class Table1Result:
    """The matrix plus the derived headline facts."""

    rendered: str
    availability_counts: dict[str, int]
    universal_items: list[str]

    @property
    def only_universal_is_total_power(self) -> bool:
        """The paper's conclusion-section claim."""
        return self.universal_items == ["Total Power Consumption (Watts)/Total"]


def run() -> Table1Result:
    """Regenerate Table I from the simulators' declared capabilities."""
    matrix = capability_matrix()
    counts = {
        platform: sum(
            matrix[platform].cell(row) is Availability.AVAILABLE
            for row in TABLE1_ROWS
        )
        for platform in PLATFORM_ORDER
    }
    return Table1Result(
        rendered=render_capability_table(),
        availability_counts=counts,
        universal_items=[row.key for row in universal_rows()],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print("Table I: environmental data available per platform\n")
    print(result.rendered)
    print(f"\nAvailable counts: {result.availability_counts}")
    print(f"Universal data points: {result.universal_items}")


def render(result: Table1Result) -> ExperimentReport:
    """Table I's paper-vs-measured block."""
    counts = result.availability_counts
    return ExperimentReport(
        "Table I", "Environmental data available per platform",
        "benchmarks/bench_table1.py",
        [
            ("universal data points", "total power consumption only",
             ", ".join(result.universal_items)),
            ("platform breadth order", "Phi > NVML > BG/Q > RAPL (implied)",
             # Ties break alphabetically so the row is stable across
             # runs regardless of dict insertion order.
             " > ".join(sorted(counts, key=lambda name: (-counts[name], name)))),
        ],
        notes=("The paper's checkmark glyphs did not survive the text "
               "extraction; the per-cell reconstruction follows the paper's "
               "prose plus the vendor documentation each simulator encodes."),
    )


SPEC = ExperimentSpec(
    exp_id="table1", title="Table I — environmental data per platform",
    module="repro.experiments.table1", config=None, seed=0,
    sources=("repro.core", "repro.bgq", "repro.rapl", "repro.nvml",
             "repro.xeonphi"),
)
