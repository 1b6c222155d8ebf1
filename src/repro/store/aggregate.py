"""Downsampled-aggregate cache.

Repeated range queries over full-Mira data are the envdb's dominant
read load (every figure regeneration scans the same windows), and the
live poll loop asks for the newest window after every sweep.  Instead
of re-reducing O(records) per query, each shard keeps min/mean/max per
(location, window) per field: built from one scan on first use, then
kept current by folding only the records ingested since the last read
— so a cycle's rollup costs O(new records + matching windows), however
long the history grows.

A keying holds its windows as columns: a row per (location, window)
that holds data — ``key`` (window index × 2**24 + location id),
``count``, ``min``, ``max``, ``total`` and ``last_t``, 48 bytes —
sorted by key.  The fold is vectorized in the plain fold's order: a
cell is seeded with its first value (so a ``-0.0`` total stays
``-0.0``) and ``np.add.at`` adds the rest one by one in (timestamp,
ingest sequence) order, never in ``np.sum``'s pairwise order; min and
max keep the ``<``/``>`` folds' rules — a NaN sticks only as a cell's
first value, and on a ``-0.0``/``0.0`` tie the earlier value wins —
which ``np.minimum`` and ``np.fmin`` each break.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.errors import ConfigError
from repro.obs.instruments import (
    STORE_CACHE_HITS,
    STORE_CACHE_INVALIDATIONS,
    STORE_CACHE_MISSES,
)


@dataclass(frozen=True)
class Aggregate:
    """One downsampled window for one location and field."""

    location: str
    field: str
    window_start: float
    window_s: float
    count: int
    minimum: float
    maximum: float
    total: float

    @property
    def mean(self) -> float:
        return self.total / self.count

    @property
    def window_end(self) -> float:
        return self.window_start + self.window_s


def aggregates(field_name: str, window_s: float, rows) -> list[Aggregate]:
    """``(window_start, location, count, min, max, total)`` rows as
    :class:`Aggregate` windows.

    Each is made with ``object.__new__`` and one ``__dict__`` update,
    not the frozen dataclass ``__init__`` (an ``object.__setattr__`` per
    field): half the cost, with the same ``repr``, ``==`` and hash.
    """
    new = object.__new__
    out = []
    for start, location, count, low, high, total in rows:
        window = new(Aggregate)
        window.__dict__.update(
            location=location, field=field_name, window_start=start,
            window_s=window_s, count=count, minimum=low, maximum=high,
            total=total)
        out.append(window)
    return out


def window_index(timestamp: float, window_s: float) -> int:
    """The downsampling window a timestamp falls in."""
    return int(math.floor(timestamp / window_s))


def merge_partials(partials: list[Aggregate],
                   location: str | None = None) -> list[Aggregate]:
    """Merge per-site partial aggregates into combined windows.

    The federated aggregate plan: every site reduces its own records
    with :meth:`ShardedStore.aggregate`, only the O(windows) partials
    travel, and the center combines them here — counts and totals add,
    minima and maxima fold.  With ``location`` set, every partial is
    relabeled to it first (the fleet-wide rollup); otherwise partials
    merge per location.  Output is sorted by (window_start, location),
    the same order the store's own aggregate queries produce.
    """
    merged: dict[tuple[str, str, float, float], list] = {}
    for part in partials:
        loc = location if location is not None else part.location
        key = (loc, part.field, float(part.window_s), part.window_start)
        acc = merged.get(key)
        if acc is None:
            merged[key] = [part.count, part.minimum, part.maximum, part.total]
        else:
            acc[0] += part.count
            if part.minimum < acc[1]:
                acc[1] = part.minimum
            if part.maximum > acc[2]:
                acc[2] = part.maximum
            acc[3] += part.total
    out = [
        Aggregate(location=loc, field=field_name, window_start=start,
                  window_s=window_s, count=int(acc[0]), minimum=acc[1],
                  maximum=acc[2], total=acc[3])
        for (loc, field_name, window_s, start), acc in merged.items()
    ]
    out.sort(key=lambda a: (a.window_start, a.location, a.field))
    return out


#: Keyings one shard's cache holds.  Keyings outlive ingests, so
#: without a cap a client cycling through distinct ``window`` values
#: would grow a shard's memory without bound; past it the least
#: recently read keying is evicted.
MAX_KEYINGS = 16

#: A cell's key is ``window index * _LOC_SPAN + location id``, so a
#: shard table may hold up to this many locations ...
_LOC_SPAN = 1 << 24
#: ... and window indexes stay below this in magnitude, which keeps
#: every key inside int64.
_MAX_INDEX = 1 << 38

_COLUMNS = {"key": np.int64, "count": np.int64, "min": np.float64,
            "max": np.float64, "total": np.float64, "last_t": np.float64}


class Cells:
    """One ``(table, field, window_s)`` keying: a row per (location,
    window) that holds data, as parallel columns sorted by ``key`` and
    grown a quarter at a time, plus the ingest watermark they are
    current up to."""

    __slots__ = (*_COLUMNS, "n", "window_s", "watermark", "folded",
                 "_names")

    def __init__(self, window_s: float):
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.empty(0, dtype))
        self.n = 0
        self.window_s = window_s
        #: The next global ingest sequence not yet folded, and the
        #: records of the table folded so far (with or without the field).
        self.watermark = self.folded = 0
        self._names = None

    def select(self, window_s: float, t0: float, t1: float,
               location_prefix: str, locations: list[str]) -> list[tuple]:
        """The windows intersecting ``[t0, t1]`` for locations matching
        ``location_prefix`` (``locations`` names the table's location
        ids), as ``(index * window_s, location, count, min, max,
        total)`` partials in (window, location id) order.

        The window range is one ``searchsorted`` on the keys, and the
        locations matching the prefix are one run of the sorted names,
        found by bisection — so a query's cost follows the matching
        cells, never the width of ``[t0, t1]`` or the number of
        locations the shard holds.
        """
        if location_prefix:
            if self._names is None or len(self._names[0]) != len(locations):
                order = sorted(range(len(locations)),
                               key=locations.__getitem__)
                rank = np.empty(len(order), np.int64)
                rank[order] = np.arange(len(order))
                self._names = ([locations[i] for i in order], rank)
            names, rank = self._names
            head = itemgetter(slice(len(location_prefix)))
            first = bisect_left(names, location_prefix, key=head)
            stop = bisect_right(names, location_prefix, first, key=head)
            if first == stop:
                return []
        lo, hi = (min(max(window_index(t, window_s), -_MAX_INDEX), _MAX_INDEX)
                  for t in (t0, t1))
        a, b = self.key[:self.n].searchsorted(
            [lo * _LOC_SPAN, (hi + 1) * _LOC_SPAN])
        index, loc = np.divmod(self.key[a:b], _LOC_SPAN)
        cells = slice(a, b)
        if location_prefix:
            picked = ((rank[loc] >= first) & (rank[loc] < stop)).nonzero()[0]
            index, loc, cells = index[picked], loc[picked], picked + a
        return list(zip([i * window_s for i in index.tolist()],
                        map(locations.__getitem__, loc.tolist()),
                        self.count[cells].tolist(),
                        self.min[cells].tolist(),
                        self.max[cells].tolist(),
                        self.total[cells].tolist()))

    def fold(self, records, rows: np.ndarray, field: str) -> None:
        """Fold the ``rows`` of a table snapshot that carry ``field``:
        each cell's rows in (timestamp, sequence) order — a fresh
        build's run order — or in ingest order after those folded.

        A cell whose rows all sort at or after the one folded before
        them folds them in place; a cell where one sorts behind (a late
        backfill) is rebuilt from the sorted run instead, one
        ``repro_store_cache_invalidations_total`` each.
        """
        rows, values = records.field(field, rows)
        if not len(rows):
            return
        t = records.t[rows]
        keys = self._keys(records, rows, t)
        head = cell_of = np.arange(len(keys))  # one row per cell ...
        if not (keys[1:] > keys[:-1]).all():  # ... unless keys repeat
            order = keys.argsort(kind="stable")
            keys, values, t = keys[order], values[order], t[order]
            head, cell_of = _groups(keys)
        n = self.n
        seeds = behind = None
        if n and keys[0] <= self.key[n - 1]:  # else every cell is new
            at = self.key[:n].searchsorted(keys[head])
            held = at < n
            held[held] = self.key[at[held]] == keys[head[held]]
            at = at[held]
            seeds = (held, self.count[at], self.min[at], self.max[at],
                     self.total[at])
        if seeds is not None or len(head) < len(keys):  # any row late?
            before = np.empty_like(t)  # the timestamp folded before it
            before[1:] = t[:-1]
            before[head] = -np.inf
            if seeds is not None:
                before[head[held]] = self.last_t[at]
            behind = t < before
        self._put(*_fold_cells(keys, values, t, head, cell_of, seeds))
        if behind is not None and behind.any():  # refold the late cells
            late = np.unique(cell_of[behind])
            STORE_CACHE_INVALIDATIONS.inc(len(late))
            self._rebuild(records, field, keys[head[late]])

    def _rebuild(self, records, field: str, cells: np.ndarray) -> None:
        """Refold whole ``cells`` from the (timestamp, sequence)-ordered
        run, exactly as a fresh build would."""
        index = np.unique(cells // _LOC_SPAN)
        # t / window_s rounds by far less than a window, so each
        # window's rows lie within a window of its nominal edges.
        lo = records.t.searchsorted((index - 1) * self.window_s)
        hi = records.t.searchsorted((index + 2) * self.window_s, "right")
        span = np.unique(np.concatenate([
            np.arange(a, b) for a, b in zip(lo.tolist(), hi.tolist())]))
        rows, values = records.field(field, span)
        t = records.t[rows]
        keys = self._keys(records, rows, t)
        order = keys.argsort(kind="stable")
        order = order[np.isin(keys[order], cells)]
        keys, values, t = keys[order], values[order], t[order]
        self._put(*_fold_cells(keys, values, t, *_groups(keys)))

    def _keys(self, records, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The cell key of each of ``rows`` (timestamps ``t``)."""
        # The run is in timestamp order: its ends bound every index.
        reach = max(-math.floor(records.t[0] / self.window_s),
                    math.floor(records.t[-1] / self.window_s))
        if reach >= _MAX_INDEX or len(records.locations) > _LOC_SPAN:
            raise ConfigError(
                f"cannot key {self.window_s} s aggregate windows over "
                f"timestamps [{records.t[0]}, {records.t[-1]}] and "
                f"{len(records.locations)} locations: window indexes must "
                f"stay below 2**38 and locations below 2**24")
        index = np.floor(t / self.window_s).astype(np.int64)
        return index * _LOC_SPAN + records.loc[rows]

    def _put(self, keys: np.ndarray, *columns: np.ndarray) -> None:
        """Write whole cells, ``keys`` ascending: the cells held are
        overwritten, the others inserted in key order."""
        n = self.n
        columns = (keys, *columns)
        at = np.full(len(keys), n)
        if n and keys[0] <= self.key[n - 1]:  # else every cell is new
            at = self.key[:n].searchsorted(keys)
            held = at < n
            held[held] = self.key[at[held]] == keys[held]
            for name, column in zip(_COLUMNS, columns):
                getattr(self, name)[at[held]] = column[held]
            at, columns = at[~held], [column[~held] for column in columns]
        m = len(at)
        if m and at[0] == n:  # every new cell sorts after the held ones
            if n + m > len(self.key):
                self._grow(max(n + m, n + n // 4, 64))
            for name, column in zip(_COLUMNS, columns):
                getattr(self, name)[n:n + m] = column
        elif m:
            for name, column in zip(_COLUMNS, columns):
                setattr(self, name,
                        np.insert(getattr(self, name)[:n], at, column))
        self.n = n + m

    def _grow(self, capacity: int) -> None:
        for name in _COLUMNS:
            grown = np.empty(capacity, _COLUMNS[name])
            grown[:self.n] = getattr(self, name)[:self.n]
            setattr(self, name, grown)


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal (sorted) ``keys`` starts, and the run
    each key is in."""
    starts = np.empty(len(keys), bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts.nonzero()[0], starts.cumsum() - 1


def _fold_cells(keys: np.ndarray, values: np.ndarray, t: np.ndarray,
                head: np.ndarray, cell_of: np.ndarray,
                seeds: tuple | None = None) -> tuple[np.ndarray, ...]:
    """Fold rows grouped into cells (``head`` and ``cell_of`` from
    :func:`_groups`; each cell's rows in fold order) into one
    accumulator per cell, returned as ``(key, count, min, max, total,
    last_t)`` columns.

    ``seeds`` — a mask over the cells, then their ``count``, ``min``,
    ``max`` and ``total`` — starts those cells from accumulators folded
    earlier; every other cell starts from its first row.
    """
    ends = np.append(head[1:], len(keys))
    count = ends - head
    low, high, total = values[head], values[head], values[head]
    rest = np.ones(len(keys), bool)
    rest[head] = False
    if seeds is not None:
        held, held_count, held_low, held_high, held_total = seeds
        rest[head[held]] = True
        count[held] += held_count
        low[held], high[held], total[held] = held_low, held_high, held_total
    _fold_into(low, high, total, cell_of[rest], values[rest])
    return keys[head], count, low, high, total, t[ends - 1]


def _fold_into(low: np.ndarray, high: np.ndarray, total: np.ndarray,
               at: np.ndarray, values: np.ndarray) -> None:
    """Fold ``values`` into the accumulators ``at`` — each
    accumulator's values in the order given — exactly as the plain
    ``total += value``, ``value < low`` and ``value > high`` folds
    would."""
    if not len(at):
        return
    nan = np.isnan(values)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python
        np.add.at(total, at, values)
    for acc, extreme, skip in ((low, np.minimum, np.inf),
                               (high, np.maximum, -np.inf)):
        seen = np.where(nan, skip, values)  # a later NaN is skipped ...
        seed = acc.copy()
        with np.errstate(invalid="ignore"):
            extreme.at(acc, at, seen)  # ... and a NaN seed propagates
        zero = acc == 0.0
        if not zero.any():
            continue
        # Tied extremes differ only as -0.0 against 0.0: the earliest
        # wins, the seed first.
        from_seed = zero & (seed == 0.0)
        acc[from_seed] = seed[from_seed]
        later = zero & ~from_seed
        if later.any():
            hits = np.flatnonzero((seen == 0.0) & later[at])
            cells, first = np.unique(at[hits], return_index=True)
            acc[cells] = seen[hits[first]]


class AggregateCache:
    """Per-shard cache of per-(location, window) field aggregates.

    One cache instance serves one shard; each ``(table, field,
    window_s)`` keying is a :class:`Cells`.  A keying survives ingests:
    each read first folds the records the shard ingested since its
    watermark.  At most :data:`MAX_KEYINGS` keyings stay cached, least
    recently read first out.
    """

    def __init__(self):
        self._entries: OrderedDict[tuple[str, str, float], Cells] = \
            OrderedDict()

    def windows(self, table: str, field: str, window_s: float,
                records) -> Cells:
        """The :class:`Cells` of one keying, current with ``records``.

        ``records`` is a snapshot of the shard table (its length is
        the table's row count): a miss folds its (timestamp,
        sequence)-ordered run, a hit folds its ingest log past the
        keying's watermark.
        """
        key = (table, field, float(window_s))
        cells = self._entries.get(key)
        if cells is not None:
            self._entries.move_to_end(key)
            fresh = (records.rows_since(cells.watermark)
                     if cells.folded < len(records) else ())
            if cells.folded + len(fresh) == len(records):
                STORE_CACHE_HITS.inc()
                if len(fresh):
                    cells.fold(records, fresh, field)
                    cells.watermark = int(records.seq[fresh[-1]]) + 1
                    cells.folded += len(fresh)
                return cells
            # A record landed behind the watermark (a writer that took
            # its sequence number before the last read but inserted
            # after it): refold from scratch rather than miss it.
        STORE_CACHE_MISSES.inc()
        cells = Cells(float(window_s))
        cells.fold(records, np.arange(len(records)), field)
        cells.watermark = records.next_seq
        cells.folded = len(records)
        self._entries[key] = cells
        if len(self._entries) > MAX_KEYINGS:
            self._entries.popitem(last=False)
            STORE_CACHE_INVALIDATIONS.inc()
        return cells
