"""``repro.api.data`` — the environmental data plane.

The sharded store and its query types (plans, readings, aggregates,
tail batches), the BG/Q environmental database, and the
analysis-side series constructors.
"""

from __future__ import annotations

from repro.analysis.compare import series_from_readings, store_series
from repro.bgq.envdb import EnvironmentalDatabase
from repro.store import (
    Aggregate,
    Batch,
    BatchBlock,
    FlushReport,
    QueryPlan,
    Reading,
    Rows,
    ShardedStore,
    ShardMap,
    TailBatch,
)

__all__ = [
    "Aggregate",
    "Batch",
    "BatchBlock",
    "EnvironmentalDatabase",
    "FlushReport",
    "QueryPlan",
    "Reading",
    "Rows",
    "ShardMap",
    "ShardedStore",
    "TailBatch",
    "series_from_readings",
    "store_series",
]
