"""The sharded, write-batched time-series store.

The paper's environmental database is capacity-bound: one DB2 server
absorbs every sweep, so the polling interval cannot shrink without
"the resulting volume of data alone exceed[ing] the server's processing
capacity" (§II-A).  :class:`ShardedStore` keeps that ceiling — but
*per shard*: records shard by location prefix (rack/midplane) across N
independent stores, each with the single-server ingest budget, so
``n_shards=1`` reproduces the paper's server exactly and N=16 sustains
a full-Mira sweep at the 60 s minimum interval.

Reads go through a planned query API — ``range``, ``prefix``,
``aggregate`` (cache-backed downsampling), ``latest`` — that merges
per-shard sorted runs deterministically: results are
ordered by (timestamp, global ingest sequence), byte-identical to the
seed envdb's flat record list at any shard count.
"""

from __future__ import annotations

import heapq
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.instruments import (
    STORE_BATCHES,
    STORE_DROPPED,
    STORE_QUERIES,
    STORE_QUERY_ROWS,
    STORE_RECORDS,
)
from repro.store.aggregate import Aggregate, AggregateCache
from repro.store.planner import QueryPlan, plan_query
from repro.store.reading import Reading
from repro.store.shards import ShardMap

_INF = float("inf")


@dataclass(frozen=True)
class FlushReport:
    """Accounting for one capacity-enforced batch ingest."""

    interval_s: float
    offered: int
    accepted: int
    dropped: int
    offered_by_shard: dict[int, int]
    dropped_by_shard: dict[int, int]

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class TailBatch:
    """One page of a tail: fresh records plus the resume cursor.

    ``cursor`` is a global ingest-sequence watermark: pass it back to
    :meth:`ShardedStore.tail` to receive only records ingested after
    this batch was taken.  Cursors are value objects — they survive
    across queries, streams and (serialized) service clients.
    """

    readings: tuple[Reading, ...]
    cursor: int

    def __len__(self) -> int:
        return len(self.readings)


class _ShardTable:
    """One table's sorted run on one shard: (timestamp, seq) order.

    Beside the time-ordered run, the table keeps an *ingest-ordered*
    log (by global sequence number) so tail cursors can resume exactly
    where they left off regardless of record timestamps — late-arriving
    backfills still reach a tailing consumer.
    """

    __slots__ = ("keys", "records", "latest", "log_seqs", "log_records")

    def __init__(self):
        self.keys: list[tuple[float, int]] = []
        self.records: list[Reading] = []
        self.latest: dict[str, Reading] = {}
        self.log_seqs: list[int] = []
        self.log_records: list[Reading] = []

    def insert(self, reading: Reading, seq: int) -> None:
        key = (reading.timestamp, seq)
        idx = bisect_left(self.keys, key)
        self.keys.insert(idx, key)
        self.records.insert(idx, reading)
        newest = self.latest.get(reading.location)
        if newest is None or reading.timestamp >= newest.timestamp:
            self.latest[reading.location] = reading
        # Sequence numbers are allocated under the store's global lock
        # but inserted under the shard's, so a concurrent writer can
        # land out of order here; the common case is a pure append.
        if self.log_seqs and seq < self.log_seqs[-1]:
            pos = bisect_left(self.log_seqs, seq)
            self.log_seqs.insert(pos, seq)
            self.log_records.insert(pos, reading)
        else:
            self.log_seqs.append(seq)
            self.log_records.append(reading)

    def slice(self, t0: float, t1: float) -> tuple[list[tuple[float, int]],
                                                   list[Reading]]:
        lo = bisect_left(self.keys, (t0,))
        hi = bisect_left(self.keys, (t1, _INF))
        return self.keys[lo:hi], self.records[lo:hi]

    def tail_slice(self, cursor: int) -> tuple[list[int], list[Reading]]:
        """Log entries with sequence number >= ``cursor``, ingest order."""
        lo = bisect_left(self.log_seqs, cursor)
        return self.log_seqs[lo:], self.log_records[lo:]


class _Shard:
    """One independent store: tables, lock, cache, ingest accounting."""

    __slots__ = ("index", "tables", "lock", "cache", "records_ingested",
                 "records_dropped")

    def __init__(self, index: int, table_names: tuple[str, ...]):
        self.index = index
        self.tables = {name: _ShardTable() for name in table_names}
        self.lock = threading.Lock()
        self.cache = AggregateCache()
        self.records_ingested = 0
        self.records_dropped = 0


class ShardedStore:
    """N location-sharded stores behind one query API.

    Parameters
    ----------
    tables:
        Table names records may be ingested into.
    n_shards:
        Independent stores; 1 (the default) models the paper's single
        DB2 server.
    capacity_records_per_s:
        Per-shard ingest ceiling applied on the batched
        (:meth:`ingest_batch`) path; ``None`` disables enforcement.
        Direct :meth:`ingest` is never capacity-limited — it models
        out-of-band inserts, and the parity tests use it.
    shard_depth:
        Location components forming the shard key (1 = rack).

    Per-shard locks make the store safe for concurrent readers.
    """

    def __init__(self, tables: tuple[str, ...], n_shards: int = 1,
                 capacity_records_per_s: float | None = None,
                 shard_depth: int = 1):
        if not tables:
            raise ConfigError("store needs at least one table")
        if capacity_records_per_s is not None and capacity_records_per_s <= 0:
            raise ConfigError(
                f"capacity must be positive, got {capacity_records_per_s}"
            )
        self.table_names = tuple(tables)
        self.shard_map = ShardMap(n_shards, depth=shard_depth)
        self.capacity_records_per_s = capacity_records_per_s
        self._shards = [_Shard(i, self.table_names) for i in range(n_shards)]
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._batches_flushed = 0
        self._dropped_carryover = 0
        self._record_children = {
            i: STORE_RECORDS.labels(str(i)) for i in range(n_shards)
        }
        self._dropped_children = {
            i: STORE_DROPPED.labels(str(i)) for i in range(n_shards)
        }

    # -- ingest ----------------------------------------------------------------

    def ingest(self, table: str, reading: Reading) -> None:
        """Insert one record, bypassing capacity enforcement."""
        shard = self._shards[self.shard_map.shard_of(reading.location)]
        self._insert(shard, self._check_table(table), reading)

    def ingest_batch(self, items: list[tuple[str, Reading]],
                     interval_s: float) -> FlushReport:
        """Insert one sweep's records with per-shard capacity accounting.

        Each shard absorbs at most ``capacity_records_per_s *
        interval_s`` records per sweep; the overflow — the tail of that
        shard's batch, in offered order — is dropped and accounted to
        the shard that saturated.
        """
        if interval_s <= 0.0:
            raise ConfigError(f"sweep interval must be positive, got {interval_s}")
        budget = None
        if self.capacity_records_per_s is not None:
            budget = int(math.floor(self.capacity_records_per_s * interval_s))

        # Insert in offered order (so merged query results stay
        # byte-identical to an unsharded flat list); each shard accepts
        # at most its per-sweep budget and drops its overflow tail.
        offered_by_shard: dict[int, int] = {}
        dropped_by_shard: dict[int, int] = {}
        accepted = 0
        for table, reading in items:
            self._check_table(table)
            index = self.shard_map.shard_of(reading.location)
            offered_by_shard[index] = offered_by_shard.get(index, 0) + 1
            if budget is not None and offered_by_shard[index] > budget:
                dropped_by_shard[index] = dropped_by_shard.get(index, 0) + 1
                continue
            self._insert(self._shards[index], table, reading)
            accepted += 1
        for index, dropped in dropped_by_shard.items():
            shard = self._shards[index]
            with shard.lock:
                shard.records_dropped += dropped
            self._dropped_children[index].inc(dropped)
        self._batches_flushed += 1
        STORE_BATCHES.inc()
        return FlushReport(
            interval_s=interval_s,
            offered=len(items),
            accepted=accepted,
            dropped=len(items) - accepted,
            offered_by_shard=offered_by_shard,
            dropped_by_shard=dropped_by_shard,
        )

    def _insert(self, shard: _Shard, table: str, reading: Reading) -> None:
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
        with shard.lock:
            shard.tables[table].insert(reading, seq)
            shard.records_ingested += 1
        self._record_children[shard.index].inc()

    # -- queries ---------------------------------------------------------------

    def plan(self, kind: str, table: str,
             location_prefix: str = "") -> QueryPlan:
        """The plan a query of this shape would execute."""
        return plan_query(kind, self._check_table(table), self.shard_map,
                          location_prefix)

    def range(self, table: str, t0: float, t1: float,
              location_prefix: str = "") -> list[Reading]:
        """Records in ``[t0, t1]`` matching the prefix, in (timestamp,
        ingest order) — the seed envdb's exact ordering."""
        self._check_window(t0, t1)
        plan = self.plan("range", table, location_prefix)
        runs = self._scan_shards(plan, t0, t1)
        if len(runs) == 1:
            out = [r for _, r in runs[0]]
        else:
            out = [r for _, r in heapq.merge(*runs, key=lambda pair: pair[0])]
        if location_prefix:
            out = [r for r in out if r.location.startswith(location_prefix)]
        STORE_QUERIES.labels("range").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return out

    def prefix(self, table: str, location_prefix: str) -> list[Reading]:
        """Every record for a location prefix, across all time."""
        out = self.range(table, -_INF, _INF, location_prefix)
        STORE_QUERIES.labels("prefix").inc()
        return out

    def latest(self, table: str, location_prefix: str = "") -> dict[str, Reading]:
        """The most recent record per matching location."""
        plan = self.plan("latest", table, location_prefix)
        out: dict[str, Reading] = {}
        for index in plan.shards:
            shard = self._shards[index]
            with shard.lock:
                for location, reading in shard.tables[table].latest.items():
                    if location.startswith(location_prefix):
                        out[location] = reading
        STORE_QUERIES.labels("latest").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return out

    def aggregate(self, table: str, field_name: str, t0: float, t1: float,
                  window_s: float, location_prefix: str = "") -> list[Aggregate]:
        """Downsampled min/mean/max per location per ``window_s`` window
        intersecting ``[t0, t1]`` — served from the per-shard aggregate
        cache (built on first use, then brought current on each read by
        folding only the records ingested since the last one)."""
        _check_aggregate(t0, t1, window_s)
        self._check_window(t0, t1)
        plan = self.plan("aggregate", table, location_prefix)

        def one_shard(index: int) -> list[Aggregate]:
            shard = self._shards[index]
            with shard.lock:
                source = shard.tables[table]
                built = shard.cache.windows(
                    table, field_name, window_s, source.records, source
                )
                return AggregateCache.select(
                    built, field_name, window_s, t0, t1, location_prefix
                )

        parts = [one_shard(index) for index in plan.shards]
        out = [agg for part in parts for agg in part]
        out.sort(key=lambda a: (a.window_start, a.location))
        STORE_QUERIES.labels("aggregate").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return out

    def tail(self, table: str, cursor: int = 0, location_prefix: str = "",
             limit: int | None = None) -> TailBatch:
        """Records ingested at or after ``cursor`` (a global ingest
        sequence number), in ingest order, merged across shards.

        Returns a :class:`TailBatch` whose ``cursor`` resumes the tail:
        ``tail(table, batch.cursor)`` yields only records ingested
        after ``batch`` was taken.  ``cursor=0`` starts from the first
        record ever ingested; ``limit`` caps the page size (the
        streaming endpoint polls in bounded pages).
        """
        if cursor < 0:
            raise ConfigError(f"tail cursor must be >= 0, got {cursor}")
        if limit is not None and limit < 1:
            raise ConfigError(f"tail limit must be >= 1, got {limit}")
        plan = self.plan("tail", table, location_prefix)

        def one_shard(index: int):
            shard = self._shards[index]
            with shard.lock:
                seqs, records = shard.tables[table].tail_slice(cursor)
            return list(zip(seqs, records))

        runs = [one_shard(index) for index in plan.shards]
        merged = runs[0] if len(runs) == 1 else heapq.merge(
            *runs, key=lambda pair: pair[0])
        out: list[Reading] = []
        next_cursor = cursor
        for seq, reading in merged:
            if location_prefix and not reading.location.startswith(
                    location_prefix):
                next_cursor = seq + 1
                continue
            if limit is not None and len(out) >= limit:
                break
            out.append(reading)
            next_cursor = seq + 1
        STORE_QUERIES.labels("tail").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return TailBatch(readings=tuple(out), cursor=next_cursor)

    @property
    def ingest_cursor(self) -> int:
        """The cursor one past the newest ingested record — start a
        tail here to receive only records ingested from now on."""
        with self._seq_lock:
            return self._seq

    def _scan_shards(self, plan: QueryPlan, t0: float, t1: float):
        def one_shard(index: int):
            shard = self._shards[index]
            with shard.lock:
                keys, records = shard.tables[plan.table].slice(t0, t1)
            return list(zip(keys, records))

        return [one_shard(index) for index in plan.shards]

    # -- rebalancing -----------------------------------------------------------

    def reshard(self, n_shards: int) -> None:
        """Rebuild the store over ``n_shards`` shards, replaying every
        record in its original ingest order.

        This is the saturation escape hatch: when a site's sweep exceeds
        one shard's ingest budget, the federation re-spreads the same
        location keyspace over more independent stores.  Records keep
        their original global sequence numbers, so range/tail ordering
        and open cursors are unaffected — only the placement changes.
        """
        if n_shards < 1:
            raise ConfigError(f"need at least one shard, got {n_shards}")
        if n_shards == len(self._shards):
            return
        replay: list[tuple[int, str, Reading]] = []
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                for name, table in shard.tables.items():
                    replay.extend(
                        (seq, name, reading)
                        for seq, reading in zip(table.log_seqs,
                                                table.log_records)
                    )
                dropped += shard.records_dropped
        replay.sort(key=lambda item: item[0])

        self.shard_map = ShardMap(n_shards, depth=self.shard_map.depth)
        self._shards = [_Shard(i, self.table_names) for i in range(n_shards)]
        self._record_children = {
            i: STORE_RECORDS.labels(str(i)) for i in range(n_shards)
        }
        self._dropped_children = {
            i: STORE_DROPPED.labels(str(i)) for i in range(n_shards)
        }
        # Drops happened against the *old* layout; keep the total honest
        # without pinning them to a shard that no longer exists.
        self._dropped_carryover += dropped
        # Replay without touching STORE_RECORDS: these records were
        # already counted when they first ingested.
        for seq, name, reading in replay:
            shard = self._shards[self.shard_map.shard_of(reading.location)]
            with shard.lock:
                shard.tables[name].insert(reading, seq)
                shard.records_ingested += 1

    # -- capacity accounting ---------------------------------------------------

    def sweep_load(self, locations: list[str],
                   interval_s: float) -> dict[int, float]:
        """Per-shard load fraction for a sweep writing one record per
        location at a given interval (no records are ingested)."""
        if interval_s <= 0.0:
            raise ConfigError(f"sweep interval must be positive, got {interval_s}")
        if self.capacity_records_per_s is None:
            return {shard.index: 0.0 for shard in self._shards}
        counts: dict[int, int] = {}
        for location in locations:
            index = self.shard_map.shard_of(location)
            counts[index] = counts.get(index, 0) + 1
        budget = self.capacity_records_per_s * interval_s
        return {index: count / budget for index, count in counts.items()}

    def capacity_fraction(self, locations: list[str],
                          interval_s: float) -> float:
        """The hottest shard's load fraction for such a sweep — the
        store's feasibility measure (>1 means dropped records)."""
        load = self.sweep_load(locations, interval_s)
        return max(load.values(), default=0.0)

    # -- accounting views ------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def batches_flushed(self) -> int:
        return self._batches_flushed

    @property
    def records_ingested(self) -> int:
        return sum(shard.records_ingested for shard in self._shards)

    @property
    def dropped_records(self) -> int:
        return (self._dropped_carryover
                + sum(shard.records_dropped for shard in self._shards))

    @property
    def records_by_shard(self) -> dict[int, int]:
        return {s.index: s.records_ingested for s in self._shards}

    @property
    def dropped_by_shard(self) -> dict[int, int]:
        return {s.index: s.records_dropped for s in self._shards}

    # -- helpers ---------------------------------------------------------------

    def _check_table(self, table: str) -> str:
        if table not in self.table_names:
            raise ConfigError(
                f"no table {table!r}; have {list(self.table_names)}"
            )
        return table

    def _check_window(self, t0: float, t1: float) -> None:
        if t1 < t0:
            raise ConfigError(f"query window inverted: [{t0}, {t1}]")


def _check_aggregate(t0: float, t1: float, window_s: float) -> None:
    if not all(math.isfinite(x) for x in (t0, t1, window_s)):
        raise ConfigError(
            f"aggregate bounds must be finite, got t0={t0}, t1={t1}, "
            f"window={window_s}"
        )
    if window_s <= 0.0:
        raise ConfigError(f"window must be positive, got {window_s}")
    if not (math.isfinite(t0 / window_s) and math.isfinite(t1 / window_s)):
        raise ConfigError(
            f"window {window_s} is too small for [{t0}, {t1}]"
        )
