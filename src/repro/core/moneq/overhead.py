"""MonEQ overhead accounting — the machinery behind Table III.

Cost models:

* **initialize** — "only needs to setup data structures and register
  timers": a fixed base plus a term growing with log2(nodes) for the
  bootstrap broadcast.
* **collection** — ticks x per-query latency, identical on every
  (homogeneous) node regardless of scale.
* **finalize** — "really has the most to do in terms of actually
  writing the collected data to disk and therefore does depend on the
  scale": a filesystem model where up to ``io_servers`` concurrent
  agent files write in parallel and additional files contend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

#: Initialize model parameters (seconds).
INIT_BASE_S = 2.2e-3
INIT_PER_LOG2_NODE_S = 0.1e-3

#: Finalize model parameters.
FINALIZE_BASE_S = 0.145
FINALIZE_PER_FILE_S = 0.3e-3
FINALIZE_CONTENTION_PER_FILE_S = 11e-3
IO_SERVERS = 16


def initialize_time_s(node_count: int) -> float:
    """Setup + timer registration + bootstrap broadcast."""
    if node_count <= 0:
        raise ConfigError(f"node count must be positive, got {node_count}")
    return INIT_BASE_S + INIT_PER_LOG2_NODE_S * math.log2(max(node_count, 2))


def finalize_time_s(file_count: int) -> float:
    """Write-out cost: parallel up to IO_SERVERS files, contention past."""
    if file_count <= 0:
        raise ConfigError(f"file count must be positive, got {file_count}")
    contended = max(0, file_count - IO_SERVERS)
    return (FINALIZE_BASE_S + FINALIZE_PER_FILE_S * file_count
            + FINALIZE_CONTENTION_PER_FILE_S * contended)


@dataclass(frozen=True)
class OverheadReport:
    """Table III for one profiled run."""

    application_runtime_s: float
    initialize_s: float
    finalize_s: float
    collection_s: float            # per agent: ticks x query latency
    ticks: int
    node_count: int
    agent_count: int
    #: Modelled full-capacity record-buffer footprint per agent, bytes.
    #: "Memory overhead is essentially a constant with respect to
    #: scale" — this is the same number at every node count.
    memory_bytes_per_agent: int = 0

    @property
    def total_s(self) -> float:
        """Total MonEQ time (the Table III bottom row)."""
        return self.initialize_s + self.finalize_s + self.collection_s

    @property
    def percent_of_runtime(self) -> float:
        """Overhead as a percentage of application runtime."""
        if self.application_runtime_s <= 0.0:
            return 0.0
        return 100.0 * self.total_s / self.application_runtime_s

    def as_table_row(self) -> dict[str, float]:
        """The five Table III rows, keyed like the paper."""
        return {
            "Application Runtime": self.application_runtime_s,
            "Time for Initialization": self.initialize_s,
            "Time for Finalize": self.finalize_s,
            "Time for Collection": self.collection_s,
            "Total Time for MonEQ": self.total_s,
        }
