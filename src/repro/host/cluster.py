"""Clusters of nodes.

Provides the machine-room scaffolding for the scale experiments: the
Stampede slice used for Figure 8 (Dell PowerEdge nodes, 2x Sandy Bridge
Xeons + 1 Xeon Phi each) and generic homogeneous clusters.  All nodes of
a cluster share one virtual clock so cross-node sums are well-defined.

A cluster can also carry a :class:`repro.store.ShardedStore` (attach via
:meth:`Cluster.attach_store`) as the fleet-wide sink for normalized
:class:`repro.store.Reading` records, sharded by hostname.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import ConfigError
from repro.host.node import Node
from repro.sim.clock import VirtualClock
from repro.sim.rng import RngRegistry
from repro.store import Batch, FlushReport, Reading, ShardedStore


class Cluster:
    """A named collection of nodes sharing a clock and RNG namespace."""

    def __init__(self, name: str, rng: RngRegistry | None = None,
                 clock: VirtualClock | None = None):
        self.name = name
        self.rng = rng if rng is not None else RngRegistry()
        self.clock = clock if clock is not None else VirtualClock()
        self._nodes: list[Node] = []
        self._store: ShardedStore | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes)

    def node(self, index: int) -> Node:
        return self._nodes[index]

    def add_node(self, node: Node) -> Node:
        self._nodes.append(node)
        return node

    def populate(
        self,
        count: int,
        factory: Callable[[str, RngRegistry, VirtualClock], Node],
        hostname_format: str = "{name}-{index:04d}",
    ) -> list[Node]:
        """Create ``count`` nodes via ``factory(hostname, rng, clock)``.

        Each node gets a forked RNG namespace so adding nodes never
        perturbs the sensors of existing ones.
        """
        if count <= 0:
            raise ConfigError(f"node count must be positive, got {count}")
        created = []
        for i in range(len(self._nodes), len(self._nodes) + count):
            hostname = hostname_format.format(name=self.name, index=i)
            node = factory(hostname, self.rng.fork(hostname), self.clock)
            self._nodes.append(node)
            created.append(node)
        return created

    # -- fleet monitoring store -------------------------------------------------

    def attach_store(self, store: ShardedStore | None = None,
                     tables: tuple[str, ...] = ("readings",),
                     n_shards: int = 1,
                     capacity_records_per_s: float | None = None) -> ShardedStore:
        """Attach (or build) the cluster's sharded monitoring store.

        Nodes shard by full hostname (``depth=2`` covers the
        ``name-0001`` convention), spreading the fleet evenly; queries
        for any hostname prefix merge across shards deterministically.
        """
        if self._store is not None:
            raise ConfigError(f"cluster {self.name!r} already has a store")
        if store is None:
            store = ShardedStore(
                tables, n_shards=n_shards,
                capacity_records_per_s=capacity_records_per_s, shard_depth=2,
            )
        self._store = store
        return store

    @property
    def store(self) -> ShardedStore:
        """The attached monitoring store; :meth:`attach_store` first."""
        if self._store is None:
            raise ConfigError(
                f"cluster {self.name!r} has no store; call attach_store()"
            )
        return self._store

    def record_readings(self, table: str, readings: list[Reading],
                        interval_s: float) -> FlushReport:
        """Ingest one collection sweep's readings as one batch; an empty
        sweep is an error (a collector that swept nothing is a bug)."""
        if not readings:
            raise ConfigError(
                f"cluster {self.name!r}: empty write batch for table {table!r}"
            )
        return self.store.ingest_batch(
            Batch.of_readings((table, reading) for reading in readings),
            interval_s)

    def devices(self, kind: str) -> list[object]:
        """All devices of a kind across the cluster, node order."""
        out: list[object] = []
        for node in self._nodes:
            out.extend(node.devices(kind))
        return out

    def run_until(self, t: float) -> None:
        """Advance every node's event queue to virtual time ``t``.

        Nodes share the cluster clock, so queues are drained in node
        order per time step; device models are independent across nodes,
        which makes this ordering immaterial to results.
        """
        for node in self._nodes:
            node.run_until(t)
