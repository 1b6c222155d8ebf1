"""The sharded, write-batched time-series store.

The paper's environmental database is capacity-bound: one DB2 server
absorbs every sweep, so the polling interval cannot shrink without
"the resulting volume of data alone exceed[ing] the server's processing
capacity" (§II-A).  :class:`ShardedStore` keeps that ceiling — but
*per shard*: records shard by location prefix (rack/midplane) across N
independent stores, each with the single-server ingest budget, so
``n_shards=1`` reproduces the paper's server exactly and N=16 sustains
a full-Mira sweep at the 60 s minimum interval.

The store holds columns.  Each shard table keeps parallel arrays in
(timestamp, global ingest sequence) order — timestamp, sequence, an
interned location id, a mechanism id, a schema id (the interned tuple
of the row's field names, in order) and a float value block — grown by
amortized doubling.  A sweep arrives as one :class:`~repro.store.Batch`
of column blocks and is appended per shard table in one step; a batch
that lands behind a table's newest row is merged in by
``searchsorted``.  While appends stay in sequence order the run *is*
the ingest log that tail cursors resume from.

Reads go through a planned query API — ``range``, ``prefix``,
``aggregate`` (cache-backed downsampling), ``latest``, ``tail`` — that
merges per-shard runs deterministically: results are ordered by
(timestamp, global ingest sequence), byte-identical to the seed
envdb's flat record list at any shard count.  A query selects its rows
once, as :class:`Rows`; the caller reads them out as :class:`Reading`
records or as each row's JSON text (:mod:`repro.store.wire`), so the
service writes its responses without building a record per row.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from repro.errors import ConfigError
from repro.obs.instruments import (
    STORE_BATCH_RECORDS,
    STORE_BATCHES,
    STORE_DROPPED,
    STORE_QUERIES,
    STORE_QUERY_ROWS,
    STORE_RECORDS,
)
from repro.store.aggregate import Aggregate, AggregateCache, aggregates
from repro.store.planner import QueryPlan, plan_query
from repro.store.reading import Reading
from repro.store.shards import ShardMap
from repro.store.wire import floats_json, names_json, row_template, times_json

_INF = float("inf")

#: Rows of a shard table's first allocation; it doubles as it fills.
_FIRST_ROWS = 64

#: A shard table's column arrays, in the order pieces carry them.
_COLUMNS = ("t", "seq", "loc", "mech", "schema", "values")


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

    ``rows`` is the page's :class:`Rows` selection, in ingest order;
    ``readings`` reads it out as records (built on first access).
    ``cursor`` is a global ingest-sequence watermark: pass it back to
    :meth:`ShardedStore.tail` to receive only records ingested after
    this batch was taken.  Cursors are value objects — they survive
    across queries, streams and (serialized) service clients.
    """

    rows: "Rows"
    cursor: int

    @cached_property
    def readings(self) -> tuple[Reading, ...]:
        return tuple(self.rows.readings())

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class BatchBlock:
    """Rows of one table sharing one mechanism and one field schema.

    Parameters
    ----------
    table:
        The table the rows go to.
    mechanism:
        The mechanism that produced every row (non-empty).
    fields:
        Field names, in the order of ``values``' columns.
    timestamps:
        One finite timestamp per row.
    locations:
        One non-empty location string per row.
    values:
        ``(rows, len(fields))`` float values (NaN allowed: a dark
        reading under fault injection is one).
    positions:
        Each row's position in the batch's offered order.
    """

    table: str
    mechanism: str
    fields: tuple[str, ...]
    timestamps: np.ndarray
    locations: Sequence[str]
    values: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "fields", tuple(self.fields))
        set_(self, "timestamps", np.asarray(self.timestamps, np.float64))
        set_(self, "values", np.asarray(self.values, np.float64))
        set_(self, "positions", np.asarray(self.positions, np.int64))
        n = len(self.timestamps)
        if not self.mechanism:
            raise ConfigError(f"block for table {self.table!r} needs a "
                              f"non-empty mechanism")
        if len(set(self.fields)) != len(self.fields):
            raise ConfigError(f"block fields repeat a name: {self.fields}")
        if (self.timestamps.shape != (n,) or len(self.locations) != n
                or self.values.shape != (n, len(self.fields))
                or self.positions.shape != (n,)):
            raise ConfigError(
                f"block for table {self.table!r}: {n} timestamps, "
                f"{len(self.locations)} locations, values "
                f"{self.values.shape} and positions {self.positions.shape} "
                f"for fields {self.fields}")
        if not np.isfinite(self.timestamps).all():
            bad = self.timestamps[~np.isfinite(self.timestamps)][0]
            raise ConfigError(f"block for table {self.table!r} has "
                              f"non-finite timestamp {bad}")
        if not all(self.locations):
            raise ConfigError(f"block for table {self.table!r} needs a "
                              f"non-empty location on every row")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class Batch:
    """The store's one write unit: column blocks whose positions number
    the offered order ``0 .. len(batch) - 1`` exactly once.

    Capacity drops and ingest sequence numbers follow the offered
    order, so a producer that interleaves several tables per sensor
    (the envdb offers bpm, coolant, temperature and fan rows per BPM)
    keeps its row order without building rows.
    :meth:`of_readings` is the one bridge from :class:`Reading` objects.
    """

    blocks: tuple[BatchBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        n = len(self)
        positions = (np.concatenate([b.positions for b in self.blocks])
                     if self.blocks else np.empty(0, np.int64))
        if not np.array_equal(np.sort(positions), np.arange(n)):
            raise ConfigError(
                f"batch positions must number 0..{n - 1} once each")

    def __len__(self) -> int:
        return sum(len(block) for block in self.blocks)

    @classmethod
    def of_readings(cls, items: Iterable[tuple[str, Reading]]) -> "Batch":
        """``(table, reading)`` pairs in offered order, as blocks: one
        per (table, mechanism, field names in order)."""
        groups: dict[tuple[str, str, tuple[str, ...]], list] = {}
        for position, (table, reading) in enumerate(items):
            key = (table, reading.mechanism, tuple(reading.values))
            groups.setdefault(key, []).append((position, reading))
        blocks = []
        for (table, mechanism, fields), rows in groups.items():
            blocks.append(BatchBlock(
                table=table, mechanism=mechanism, fields=fields,
                timestamps=[r.timestamp for _, r in rows],
                locations=[r.location for _, r in rows],
                values=np.array([list(r.values.values()) for _, r in rows],
                                np.float64).reshape(len(rows), len(fields)),
                positions=[p for p, _ in rows],
            ))
        return cls(tuple(blocks))


def _intern(ids: dict, names: list, key) -> int:
    index = ids.get(key)
    if index is None:
        index = ids[key] = len(names)
        names.append(key)
    return index


class _View:
    """A snapshot of one shard table: its columns up to the row count
    at the time it was taken, the name lists its ids index, and its
    ingest log.  Writers only append past that count or swap in new
    buffers, so a view never changes under its reader."""

    __slots__ = _COLUMNS + ("locations", "mechanisms", "schemas", "log")

    def __len__(self) -> int:
        return len(self.t)

    def span(self, t0: float, t1: float) -> np.ndarray:
        """Rows with timestamps in ``[t0, t1]``, in (timestamp, seq) order."""
        return np.arange(np.searchsorted(self.t, t0, "left"),
                         np.searchsorted(self.t, t1, "right"))

    def rows_since(self, cursor: int) -> np.ndarray:
        """Rows with sequence number >= ``cursor``, in ingest order."""
        if self.log is None:  # the run is in sequence order
            return np.arange(np.searchsorted(self.seq, cursor), len(self.seq))
        order, seqs = self.log
        return order[np.searchsorted(seqs, cursor):]

    @property
    def next_seq(self) -> int:
        """One past the newest sequence number in the table."""
        return int(self.seq.max()) + 1 if len(self.seq) else 0

    def matching(self, rows: np.ndarray, prefix: str) -> np.ndarray:
        """Which of ``rows`` have a location starting with ``prefix``."""
        if not prefix:
            return np.ones(len(rows), bool)
        ok = np.array([name.startswith(prefix) for name in self.locations],
                      bool)
        return ok[self.loc[rows]]

    def field(self, name: str, rows: np.ndarray) -> tuple[np.ndarray,
                                                          np.ndarray]:
        """The subset of ``rows`` whose schema has field ``name``, in
        the given order, and that field's values."""
        column = np.array([fields.index(name) if name in fields else -1
                           for fields in self.schemas], np.int64)
        columns = column[self.schema[rows]]
        has = columns >= 0
        rows, columns = rows[has], columns[has]
        return rows, self.values[rows, columns]

    def readings(self, rows: np.ndarray) -> list[Reading]:
        """Rows as :class:`Reading` records, in the given order."""
        locations, mechanisms, schemas = (self.locations, self.mechanisms,
                                          self.schemas)
        return [
            Reading(t, locations[loc], mechanisms[mech],
                    dict(zip(schemas[schema], values)))
            for t, loc, mech, schema, values in zip(
                self.t[rows].tolist(), self.loc[rows].tolist(),
                self.mech[rows].tolist(), self.schema[rows].tolist(),
                self.values[rows].tolist())
        ]

    def json(self, rows: np.ndarray) -> list[str]:
        """Rows as the JSON text of their readings' wire objects
        (``t``, ``location``, ``mechanism``, ``values``), in the given
        order: one template per schema (see :mod:`repro.store.wire`)."""
        if not len(rows):
            return []
        heads = (names_json(self.loc[rows], self.locations),
                 names_json(self.mech[rows], self.mechanisms),
                 times_json(self.t[rows]))
        schema = self.schema[rows]
        ids = np.unique(schema).tolist()
        if len(ids) == 1:
            return self._schema_json(ids[0], rows, heads)
        out = [""] * len(rows)
        for sid in ids:
            at = np.flatnonzero(schema == sid).tolist()
            texts = self._schema_json(sid, rows[at], [
                list(map(head.__getitem__, at)) for head in heads])
            for i, text in zip(at, texts):
                out[i] = text
        return out

    def _schema_json(self, sid: int, rows: np.ndarray, heads) -> list[str]:
        """``json`` for rows that all have schema ``sid``, given their
        location, mechanism and timestamp texts."""
        template, order = row_template(self.schemas[sid])
        k = len(order)
        texts = floats_json(self.values[rows][:, order].ravel())
        return [template % args
                for args in zip(*heads, *(texts[c::k] for c in range(k)))]


class _ShardTable:
    """One table on one shard: parallel column arrays in (timestamp,
    seq) order, with interned location, mechanism and schema names.

    While every write appends in sequence order the run doubles as the
    ingest log; after a write lands out of order the log is a
    sequence-order permutation of the run, built on the first read that
    needs it.  Each location's newest row is folded on read, too.
    """

    __slots__ = _COLUMNS + ("n", "locations", "mechanisms", "schemas",
                            "_ids", "seq_ordered", "_log", "_latest")

    def __init__(self):
        self.n = 0
        self.t = np.empty(0, np.float64)
        self.seq = np.empty(0, np.int64)
        self.loc = np.empty(0, np.int32)
        self.mech = np.empty(0, np.int32)
        self.schema = np.empty(0, np.int32)
        self.values = np.empty((0, 0), np.float64)
        self.locations: list[str] = []
        self.mechanisms: list[str] = []
        self.schemas: list[tuple[str, ...]] = []
        self._ids: tuple[dict, dict, dict] = ({}, {}, {})
        self.seq_ordered = True
        self._log = None
        self._latest = None

    # -- writes ----------------------------------------------------------------

    def block_piece(self, block: BatchBlock, rows: np.ndarray,
                    seqs: np.ndarray) -> tuple:
        """Some rows of a batch block as a piece of this table's columns."""
        ids, names = self._ids[0], self.locations
        at = block.locations
        locations = [at[i] for i in rows.tolist()]
        try:
            loc = np.array(list(map(ids.__getitem__, locations)), np.int32)
        except KeyError:  # a location this table has not seen yet
            loc = np.array([_intern(ids, names, location)
                            for location in locations], np.int32)
        mech = _intern(self._ids[1], self.mechanisms, block.mechanism)
        schema = _intern(self._ids[2], self.schemas, block.fields)
        m = len(rows)
        return (block.timestamps[rows], seqs, loc,
                np.full(m, mech, np.int32), np.full(m, schema, np.int32),
                block.values[rows])

    def view_piece(self, view: _View, rows: np.ndarray) -> tuple:
        """Some rows of another table's view as a piece of this one's."""
        ids = []
        for kind, (names_in, table_ids, names) in enumerate((
                (view.locations, self._ids[0], self.locations),
                (view.mechanisms, self._ids[1], self.mechanisms),
                (view.schemas, self._ids[2], self.schemas))):
            column = getattr(view, _COLUMNS[2 + kind])[rows]
            remap = np.zeros(len(names_in), np.int32)
            for old in np.unique(column).tolist():
                remap[old] = _intern(table_ids, names, names_in[old])
            ids.append(remap[column])
        return (view.t[rows], view.seq[rows], *ids, view.values[rows])

    def add(self, pieces: list[tuple]) -> None:
        """Insert pieces' rows, keeping the run in (timestamp, seq) order."""
        width = max([self.values.shape[1]]
                    + [piece[5].shape[1] for piece in pieces])
        if len(pieces) == 1:
            new = list(pieces[0][:5]) + [_padded(pieces[0][5], width)]
        else:
            new = [np.concatenate([piece[i] for piece in pieces])
                   for i in range(5)]
            new.append(np.concatenate([_padded(piece[5], width)
                                       for piece in pieces]))
        t, seq = new[0], new[1]
        if not _sorted(t, seq):
            order = np.lexsort((seq, t))
            new = [column[order] for column in new]
            t, seq = new[0], new[1]
        n, m = self.n, len(t)
        if width > self.values.shape[1]:
            grown = np.zeros((len(self.t), width), np.float64)
            grown[:n, :self.values.shape[1]] = self.values[:n]
            self.values = grown
        if n == 0 or (float(t[0]), int(seq[0])) > (float(self.t[n - 1]),
                                                    int(self.seq[n - 1])):
            self._reserve(n + m)
            for name, column in zip(_COLUMNS, new):
                getattr(self, name)[n:n + m] = column
            self.seq_ordered = (self.seq_ordered
                                and (n == 0 or seq[0] > self.seq[n - 1])
                                and bool((seq[1:] > seq[:-1]).all()))
        else:
            at = self._insertion_points(t, seq)
            moved = np.arange(n) + np.searchsorted(at, np.arange(n), "right")
            capacity = max(len(self.t), n + m)
            for name, column in zip(_COLUMNS, new):
                old = getattr(self, name)
                merged = np.empty((capacity,) + old.shape[1:], old.dtype)
                merged[moved] = old[:n]
                merged[at + np.arange(m)] = column
                setattr(self, name, merged)
            self.seq_ordered = bool((self.seq[1:n + m]
                                     > self.seq[:n + m - 1]).all())
            self._latest = None
        self.n = n + m
        self._log = None

    def _insertion_points(self, t: np.ndarray, seq: np.ndarray) -> np.ndarray:
        """Where each of the (timestamp, seq)-sorted new rows goes in
        the run: the count of run rows that sort before it."""
        run_t, run_seq = self.t[:self.n], self.seq[:self.n]
        at = np.searchsorted(run_t, t, "left")
        hi = np.searchsorted(run_t, t, "right")
        for j in np.flatnonzero(hi > at).tolist():  # timestamp ties
            at[j] += np.searchsorted(run_seq[at[j]:hi[j]], seq[j])
        return at

    def _reserve(self, rows: int) -> None:
        capacity = len(self.t)
        if rows <= capacity:
            return
        capacity = max(rows, 2 * capacity, _FIRST_ROWS)
        for name in _COLUMNS:
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], old.dtype)
            grown[:self.n] = old[:self.n]
            setattr(self, name, grown)

    # -- reads -----------------------------------------------------------------

    def view(self) -> _View:
        """A snapshot for readers (take it under the shard lock)."""
        n = self.n
        view = _View()
        for name in _COLUMNS:
            setattr(view, name, getattr(self, name)[:n])
        view.locations = self.locations
        view.mechanisms = self.mechanisms
        view.schemas = self.schemas
        if not self.seq_ordered and self._log is None:
            order = np.argsort(view.seq, kind="stable")
            self._log = (order, view.seq[order])
        view.log = None if self.seq_ordered else self._log
        return view

    def newest_rows(self, prefix: str) -> np.ndarray:
        """The newest row of each location matching ``prefix``, in the
        order the locations were first written.

        Kept current on read: rows appended since the last call fold
        in; a merge (which moves rows) starts the fold over.
        """
        folded, latest = self._latest or (0, np.empty(0, np.int64))
        if len(latest) < len(self.locations):
            latest = np.concatenate([latest, np.full(
                len(self.locations) - len(latest), -1, np.int64)])
        np.maximum.at(latest, self.loc[folded:self.n],
                      np.arange(folded, self.n))
        self._latest = (self.n, latest)
        ids = np.flatnonzero(latest >= 0)
        if prefix:
            ids = ids[[self.locations[i].startswith(prefix)
                       for i in ids.tolist()]]
        return latest[ids]


def _sorted(t: np.ndarray, seq: np.ndarray) -> bool:
    """Whether rows are in (timestamp, seq) order already."""
    later, tied = t[1:] > t[:-1], t[1:] == t[:-1]
    return bool((later | (tied & (seq[1:] > seq[:-1]))).all())


def _padded(values: np.ndarray, width: int) -> np.ndarray:
    if values.shape[1] == width:
        return values
    out = np.zeros((len(values), width), np.float64)
    out[:, :values.shape[1]] = values
    return out


class Rows:
    """The rows one query selected, in result order, over snapshots of
    one or more shard tables.

    The selection is made once; the caller picks the form the rows
    come out in: :meth:`readings` for library callers, :meth:`json`
    for the service's responses (byte-identical to ``json.dumps`` of
    the readings' wire objects with sorted keys).
    """

    __slots__ = ("_parts", "_owner")

    def __init__(self, parts: list[tuple[_View, np.ndarray]],
                 owner: list[int] | None = None):
        #: (view, rows) per part, each part's rows in result order.
        self._parts = parts
        #: The part each result position comes from; ``None`` when the
        #: parts follow each other.
        self._owner = owner

    def __len__(self) -> int:
        return sum(len(rows) for _, rows in self._parts)

    def readings(self) -> list[Reading]:
        """The rows as :class:`Reading` records."""
        return self._interleaved([view.readings(rows)
                                  for view, rows in self._parts])

    def json(self) -> list[str]:
        """Each row's JSON text (``t``, ``location``, ``mechanism``,
        ``values``, keys sorted)."""
        return self._interleaved([view.json(rows)
                                  for view, rows in self._parts])

    def _interleaved(self, runs: list[list]) -> list:
        if self._owner is None:
            return [item for run in runs for item in run]
        heads = [iter(run) for run in runs]
        return [next(heads[k]) for k in self._owner]


def _merged(parts: list[tuple[_View, np.ndarray]], key) -> Rows:
    """The rows of each (view, rows) part, interleaved in
    ``key(view, rows)`` order.  Each part's rows are in that order
    already, so the merge only records which part owns each position
    of the global order."""
    parts = [(view, rows) for view, rows in parts if len(rows)]
    if len(parts) < 2:
        return Rows(parts)
    owner = np.concatenate([np.full(len(rows), k)
                            for k, (_, rows) in enumerate(parts)])
    keys = [np.concatenate(column) for column in
            zip(*(key(view, rows) for view, rows in parts))]
    order = np.lexsort(keys[::-1])
    return Rows(parts, owner[order].tolist())


def _time_key(view: _View, rows: np.ndarray):
    return view.t[rows], view.seq[rows]


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
        self.capacity_records_per_s = capacity_records_per_s
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._batches_flushed = 0
        self._dropped_carryover = 0
        self._layout(ShardMap(n_shards, depth=shard_depth))

    def _layout(self, shard_map: ShardMap) -> None:
        """Start empty shards over ``shard_map``."""
        self.shard_map = shard_map
        n = shard_map.n_shards
        self._shards = [_Shard(i, self.table_names) for i in range(n)]
        self._shard_of: dict[str, int] = {}
        self._record_children = {
            i: STORE_RECORDS.labels(str(i)) for i in range(n)
        }
        self._dropped_children = {
            i: STORE_DROPPED.labels(str(i)) for i in range(n)
        }

    # -- ingest ----------------------------------------------------------------

    def ingest(self, table: str, reading: Reading) -> None:
        """Insert one record, bypassing capacity enforcement."""
        self._check_table(table)
        self._write(Batch.of_readings([(table, reading)]), None)

    def ingest_batch(self, batch: Batch, interval_s: float) -> FlushReport:
        """Insert one sweep's records with per-shard capacity accounting.

        Each shard absorbs at most ``capacity_records_per_s *
        interval_s`` records per sweep; the overflow — the tail of that
        shard's rows in the batch's offered order — is dropped and
        accounted to the shard that saturated.  The batch's size is one
        ``repro_store_batch_records`` observation, and each shard's
        accepted records one ``repro_store_records_total`` increment.
        """
        if not isinstance(batch, Batch):
            raise ConfigError(
                f"ingest_batch takes a Batch, got {type(batch).__name__}; "
                f"Batch.of_readings builds one from (table, Reading) pairs")
        if interval_s <= 0.0:
            raise ConfigError(f"sweep interval must be positive, got {interval_s}")
        for table in sorted({block.table for block in batch.blocks}):
            self._check_table(table)
        budget = None
        if self.capacity_records_per_s is not None:
            budget = int(math.floor(self.capacity_records_per_s * interval_s))
        offered, dropped = self._write(batch, budget)
        self._batches_flushed += 1
        STORE_BATCHES.inc()
        STORE_BATCH_RECORDS.observe(len(batch))
        return FlushReport(
            interval_s=interval_s,
            offered=len(batch),
            accepted=len(batch) - int(dropped.sum()),
            dropped=int(dropped.sum()),
            offered_by_shard={i: int(c) for i, c in enumerate(offered) if c},
            dropped_by_shard={i: int(c) for i, c in enumerate(dropped) if c},
        )

    def _write(self, batch: Batch, budget: int | None):
        """Append a batch shard by shard; returns per-shard offered and
        dropped counts.

        Sequence numbers are one range, allocated in offered order to
        the accepted rows; each shard's rows go in under one lock and
        one counter increment.
        """
        n_shards = len(self._shards)
        where = [self._shards_of(block.locations) for block in batch.blocks]
        shard_of = np.empty(len(batch), np.int64)
        for block, shards in zip(batch.blocks, where):
            shard_of[block.positions] = shards
        offered = np.bincount(shard_of, minlength=n_shards)
        accept = None
        if budget is not None and (offered > budget).any():
            # Each shard keeps the first `budget` of its rows in offered
            # order: a row's rank is its place among its shard's rows.
            order = np.argsort(shard_of, kind="stable")
            first = np.cumsum(offered) - offered
            rank = np.empty(len(batch), np.int64)
            rank[order] = np.arange(len(batch)) - first[shard_of[order]]
            accept = rank < budget
        kept = offered if accept is None else np.minimum(offered, budget)
        with self._seq_lock:
            base = self._seq
            self._seq += int(kept.sum())
        seq_of = (base + np.arange(len(batch)) if accept is None
                  else base + np.cumsum(accept) - 1)

        pieces: dict[int, dict[str, list]] = {}
        for block, shards in zip(batch.blocks, where):
            rows = np.arange(len(block))
            if accept is not None:
                rows = rows[accept[block.positions]]
            order = rows[np.argsort(shards[rows], kind="stable")]
            cuts = np.cumsum(np.bincount(shards[rows], minlength=n_shards))
            seqs = seq_of[block.positions]
            start = 0
            for index, stop in enumerate(cuts.tolist()):
                if stop > start:
                    part = order[start:stop]
                    pieces.setdefault(index, {}).setdefault(
                        block.table, []).append((block, part, seqs[part]))
                start = stop
        for index, tables in pieces.items():
            shard = self._shards[index]
            with shard.lock:
                for name, parts in tables.items():
                    table = shard.tables[name]
                    table.add([table.block_piece(*part) for part in parts])
                shard.records_ingested += int(kept[index])
            self._record_children[index].inc(int(kept[index]))
        dropped = offered - kept
        for index in np.flatnonzero(dropped).tolist():
            shard = self._shards[index]
            with shard.lock:
                shard.records_dropped += int(dropped[index])
            self._dropped_children[index].inc(int(dropped[index]))
        return offered, dropped

    def _shards_of(self, locations) -> np.ndarray:
        """The shard index of each location."""
        if len(self._shards) == 1:
            return np.zeros(len(locations), np.int64)
        known = self._shard_of
        try:
            return np.array(list(map(known.__getitem__, locations)), np.int64)
        except KeyError:  # a location this layout has not placed yet
            for location in locations:
                if location not in known:
                    known[location] = self.shard_map.shard_of(location)
            return np.array(list(map(known.__getitem__, locations)), np.int64)

    # -- queries ---------------------------------------------------------------

    def plan(self, kind: str, table: str,
             location_prefix: str = "") -> QueryPlan:
        """The plan a query of this shape would execute."""
        return plan_query(kind, self._check_table(table), self.shard_map,
                          location_prefix)

    def _views(self, plan: QueryPlan) -> list[_View]:
        views = []
        for index in plan.shards:
            shard = self._shards[index]
            with shard.lock:
                views.append(shard.tables[plan.table].view())
        return views

    def range_rows(self, table: str, t0: float, t1: float,
                   location_prefix: str = "") -> Rows:
        """Records in ``[t0, t1]`` matching the prefix, in (timestamp,
        ingest order) — the seed envdb's exact ordering.  A NaN bound
        is a :class:`ConfigError`; infinite bounds are open ends."""
        self._check_window(t0, t1)
        plan = self.plan("range", table, location_prefix)
        parts = []
        for view in self._views(plan):
            rows = view.span(t0, t1)
            parts.append((view, rows[view.matching(rows, location_prefix)]))
        out = _merged(parts, _time_key)
        STORE_QUERIES.labels("range").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return out

    def range(self, table: str, t0: float, t1: float,
              location_prefix: str = "") -> list[Reading]:
        """:meth:`range_rows` as :class:`Reading` records."""
        return self.range_rows(table, t0, t1, location_prefix).readings()

    def prefix_rows(self, table: str, location_prefix: str) -> Rows:
        """Every record for a location prefix, across all time."""
        out = self.range_rows(table, -_INF, _INF, location_prefix)
        STORE_QUERIES.labels("prefix").inc()
        return out

    def prefix(self, table: str, location_prefix: str) -> list[Reading]:
        """:meth:`prefix_rows` as :class:`Reading` records."""
        return self.prefix_rows(table, location_prefix).readings()

    def latest_rows(self, table: str, location_prefix: str = "") -> Rows:
        """The most recent record per matching location — the greatest
        (timestamp, ingest sequence) — in location name order."""
        plan = self.plan("latest", table, location_prefix)
        parts, named = [], []
        for index in plan.shards:
            shard = self._shards[index]
            with shard.lock:
                source = shard.tables[table]
                view, rows = source.view(), source.newest_rows(location_prefix)
            names = [view.locations[i] for i in view.loc[rows].tolist()]
            order = sorted(range(len(names)), key=names.__getitem__)
            parts.append((view, rows[order]))
            named.extend((names[i], len(parts) - 1) for i in order)
        named.sort(key=itemgetter(0))
        out = Rows(parts, [part for _, part in named])
        STORE_QUERIES.labels("latest").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return out

    def latest(self, table: str, location_prefix: str = "") -> dict[str, Reading]:
        """:meth:`latest_rows` as location → :class:`Reading`."""
        return {reading.location: reading for reading in
                self.latest_rows(table, location_prefix).readings()}

    def partials(self, table: str, field_name: str, t0: float, t1: float,
                 window_s: float, location_prefix: str = "") -> list[tuple]:
        """Downsampled windows per location per ``window_s`` window
        intersecting ``[t0, t1]``, as ``(window_start, location, count,
        min, max, total)`` tuples in (window_start, location) order —
        served from the per-shard aggregate cache (built on first use,
        then brought current on each read by folding only the records
        ingested since the last one)."""
        _check_aggregate(t0, t1, window_s)
        self._check_window(t0, t1)
        plan = self.plan("aggregate", table, location_prefix)
        out: list[tuple] = []
        for index in plan.shards:
            shard = self._shards[index]
            with shard.lock:
                view = shard.tables[table].view()
                cells = shard.cache.windows(table, field_name, window_s, view)
                out.extend(cells.select(window_s, t0, t1, location_prefix,
                                        view.locations))
        out.sort(key=itemgetter(0, 1))
        STORE_QUERIES.labels("aggregate").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return out

    def aggregate(self, table: str, field_name: str, t0: float, t1: float,
                  window_s: float, location_prefix: str = "") -> list[Aggregate]:
        """:meth:`partials` as min/mean/max :class:`Aggregate` windows."""
        return aggregates(field_name, window_s, self.partials(
            table, field_name, t0, t1, window_s, location_prefix))

    def tail(self, table: str, cursor: int = 0, location_prefix: str = "",
             limit: int | None = None) -> TailBatch:
        """Records ingested at or after ``cursor`` (a global ingest
        sequence number), in ingest order, merged across shards.

        Returns a :class:`TailBatch` whose ``cursor`` resumes the tail:
        ``tail(table, batch.cursor)`` yields only records ingested
        after ``batch`` was taken.  ``cursor=0`` starts from the first
        record ever ingested; a cursor past :attr:`ingest_cursor` is a
        :class:`ConfigError` (no record could ever reach it).  ``limit``
        caps the page size (the streaming endpoint polls in bounded
        pages).
        """
        self._check_cursor(cursor)
        if limit is not None and limit < 1:
            raise ConfigError(f"tail limit must be >= 1, got {limit}")
        plan = self.plan("tail", table, location_prefix)
        parts = [(view, view.rows_since(cursor)) for view in self._views(plan)]
        seqs = np.concatenate([view.seq[rows] for view, rows in parts])
        matched = np.concatenate([view.matching(rows, location_prefix)
                                  for view, rows in parts])
        owner = np.concatenate([np.full(len(rows), k)
                                for k, (_, rows) in enumerate(parts)])
        order = np.argsort(seqs, kind="stable")
        hits = np.flatnonzero(matched[order])
        # The page consumes every row before the first match it has no
        # room for; rows it skips for the prefix are consumed too.
        end = len(order)
        if limit is not None and len(hits) > limit:
            end, hits = hits[limit], hits[:limit]
        next_cursor = int(seqs[order[end - 1]]) + 1 if end else cursor
        taken = order[hits]
        rows_all = np.concatenate([rows for _, rows in parts])
        # `taken` is in ingest order, so each part's share of it is too.
        out = Rows([(view, rows_all[taken[owner[taken] == k]])
                    for k, (view, _) in enumerate(parts)],
                   owner[taken].tolist())
        STORE_QUERIES.labels("tail").inc()
        STORE_QUERY_ROWS.inc(len(out))
        return TailBatch(rows=out, cursor=next_cursor)

    @property
    def ingest_cursor(self) -> int:
        """The cursor one past the newest ingested record — start a
        tail here to receive only records ingested from now on."""
        with self._seq_lock:
            return self._seq

    # -- rebalancing -----------------------------------------------------------

    def reshard(self, n_shards: int) -> None:
        """Rebuild the store over ``n_shards`` shards, gathering each
        table's rows by their new shard.

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
        views: dict[str, list[_View]] = {name: [] for name in self.table_names}
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                for name, table in shard.tables.items():
                    views[name].append(table.view())
                dropped += shard.records_dropped
        self._layout(ShardMap(n_shards, depth=self.shard_map.depth))
        # Drops happened against the *old* layout; keep the total honest
        # without pinning them to a shard that no longer exists.
        self._dropped_carryover += dropped
        # Gather without touching STORE_RECORDS: these records were
        # already counted when they first ingested.
        for name, old in views.items():
            pieces: dict[int, list] = {}
            for view in old:
                if not len(view):
                    continue
                target = self._shards_of(view.locations)[view.loc]
                for index in np.unique(target).tolist():
                    pieces.setdefault(index, []).append(
                        (view, np.flatnonzero(target == index)))
            for index, parts in pieces.items():
                shard = self._shards[index]
                with shard.lock:
                    table = shard.tables[name]
                    table.add([table.view_piece(*part) for part in parts])
                    shard.records_ingested += sum(len(rows)
                                                  for _, rows in parts)

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
        for name, bound in (("t0", t0), ("t1", t1)):
            if math.isnan(bound):
                raise ConfigError(f"query bound {name} is NaN")
        if t1 < t0:
            raise ConfigError(f"query window inverted: [{t0}, {t1}]")

    def _check_cursor(self, cursor: int) -> None:
        if cursor < 0:
            raise ConfigError(f"tail cursor must be >= 0, got {cursor}")
        head = self.ingest_cursor
        if cursor > head:
            raise ConfigError(
                f"tail cursor {cursor} is past the ingest head {head}")


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
