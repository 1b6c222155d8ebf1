"""``repro.store`` — the sharded, write-batched time-series data plane.

The paper's BG/Q finding is that the environmental database is
capacity-bound by a single server (§II-A).  This package is the
fleet-scale answer while keeping the paper's semantics: records shard
by location prefix across N independent stores, each carrying the
single-server ingest ceiling (``n_shards=1`` *is* the paper's server),
writes batch per polling sweep, and a downsampled-aggregate cache makes
repeated range queries O(windows) instead of O(records).

* :mod:`repro.store.reading` — the shared :class:`Reading` record all
  vendor read paths normalize to;
* :mod:`repro.store.shards` — deterministic location-prefix sharding;
* :mod:`repro.store.batcher` — per-sweep write batching;
* :mod:`repro.store.aggregate` — the per-shard min/mean/max window cache;
* :mod:`repro.store.planner` — shard routing + cache-use planning;
* :mod:`repro.store.engine` — :class:`ShardedStore` with the
  ``range`` / ``prefix`` / ``aggregate`` / ``latest`` / ``tail``
  query API (``tail`` resumes from a :class:`TailBatch` cursor);
* :mod:`repro.store.federation` — :class:`FederatedStore` routing N
  sites' stores behind one ``site/location`` API, merging site-local
  partial aggregates centrally and resharding saturated sites.

:mod:`repro.bgq.envdb` routes its storage through this package;
``repro obs dump store`` exercises it end to end and prints its
``repro_store_*`` metrics.
"""

from __future__ import annotations

from repro.store.aggregate import (
    Aggregate,
    AggregateCache,
    merge_partials,
    window_index,
)
from repro.store.batcher import WriteBatcher
from repro.store.engine import FlushReport, ShardedStore, TailBatch
from repro.store.federation import FederatedQueryPlan, FederatedStore
from repro.store.planner import QUERY_KINDS, QueryPlan, plan_query
from repro.store.reading import Reading
from repro.store.shards import ShardMap, shard_key

__all__ = [
    "Aggregate",
    "AggregateCache",
    "FederatedQueryPlan",
    "FederatedStore",
    "FlushReport",
    "QUERY_KINDS",
    "QueryPlan",
    "Reading",
    "ShardMap",
    "ShardedStore",
    "TailBatch",
    "WriteBatcher",
    "merge_partials",
    "plan_query",
    "shard_key",
    "window_index",
]
