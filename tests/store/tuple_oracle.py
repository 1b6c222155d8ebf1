"""The aggregate cache's fold oracle: the original dict-of-tuples cache.

:class:`TupleCache` keeps each keying as location → window index →
``(count, min, max, total, last_timestamp)`` tuples and folds one
Python float at a time: ``total + value`` in (timestamp, ingest
sequence) order, ``value < low`` and ``value > high`` for the extremes,
and a late record rebuilds its (location, window) from the sorted run.
:class:`OracleStore` is a :class:`ShardedStore` whose shards use it.
The columnar :class:`repro.store.aggregate.AggregateCache` must fold
exactly as it does: the same windows, the same float bits, and the same
hit, miss and invalidation counts.
"""

from bisect import bisect_left, bisect_right
from collections import OrderedDict

import numpy as np

from repro.obs.instruments import (
    STORE_CACHE_HITS,
    STORE_CACHE_INVALIDATIONS,
    STORE_CACHE_MISSES,
)
from repro.store import ShardedStore, window_index
from repro.store.aggregate import MAX_KEYINGS


class _Keying:
    """One keying's location → window → accumulator map and watermark."""

    def __init__(self, built, watermark, folded):
        self.built = built
        self.watermark = watermark
        self.folded = folded

    def select(self, window_s, t0, t1, location_prefix, locations):
        """The partials :meth:`Cells.select` returns, by a walk over the
        locations."""
        lo = window_index(t0, window_s)
        hi = window_index(t1, window_s)
        out = []
        for location, by_window in self.built.items():
            if not location.startswith(location_prefix):
                continue
            for idx in sorted(by_window):
                if lo <= idx <= hi:
                    out.append((idx * window_s, location,
                                *by_window[idx][:4]))
        return out


def _fold(by_window, idx, value, timestamp):
    acc = by_window.get(idx)
    if acc is None:
        by_window[idx] = (1, value, value, value, timestamp)
        return
    count, low, high, total, _ = acc
    by_window[idx] = (count + 1,
                      value if value < low else low,
                      value if value > high else high,
                      total + value, timestamp)


def _fold_rows(built, records, rows, field, window_s):
    rows, values = records.field(field, rows)
    locations = records.locations
    for loc, timestamp, value in zip(records.loc[rows].tolist(),
                                     records.t[rows].tolist(),
                                     values.tolist()):
        _fold(built.setdefault(locations[loc], {}),
              window_index(timestamp, window_s), value, timestamp)


def _rebuild_window(built, records, loc, field, idx, window_s):
    t = records.t

    def index_of(row):
        return window_index(float(t[row]), window_s)

    lo = bisect_left(range(len(t)), idx, key=index_of)
    hi = bisect_right(range(len(t)), idx, lo=lo, key=index_of)
    rows = np.arange(lo, hi)
    _fold_rows(built, records, rows[records.loc[lo:hi] == loc], field,
               window_s)


class TupleCache:
    """A drop-in :class:`~repro.store.aggregate.AggregateCache` that
    folds tuple by tuple."""

    def __init__(self):
        self._entries = OrderedDict()

    def windows(self, table, field, window_s, records):
        key = (table, field, float(window_s))
        keying = self._entries.get(key)
        if keying is not None:
            self._entries.move_to_end(key)
            fresh = records.rows_since(keying.watermark)
            if keying.folded + len(fresh) == len(records):
                STORE_CACHE_HITS.inc()
                self._fold_tail(keying, field, window_s, records, fresh)
                return keying
        STORE_CACHE_MISSES.inc()
        built = {}
        _fold_rows(built, records, np.arange(len(records)), field, window_s)
        keying = self._entries[key] = _Keying(built, records.next_seq,
                                              len(records))
        if len(self._entries) > MAX_KEYINGS:
            self._entries.popitem(last=False)
            STORE_CACHE_INVALIDATIONS.inc()
        return keying

    @staticmethod
    def _fold_tail(keying, field, window_s, records, fresh):
        if not len(fresh):
            return
        built = keying.built
        locations = records.locations
        rebuilt = set()
        rows, values = records.field(field, fresh)
        for loc, timestamp, value in zip(records.loc[rows].tolist(),
                                         records.t[rows].tolist(),
                                         values.tolist()):
            idx = window_index(timestamp, window_s)
            if (loc, idx) in rebuilt:
                continue  # the rebuild already read it from the run
            by_window = built.setdefault(locations[loc], {})
            acc = by_window.get(idx)
            if acc is None or timestamp >= acc[4]:
                _fold(by_window, idx, value, timestamp)
                continue
            del by_window[idx]
            _rebuild_window(built, records, loc, field, idx, window_s)
            rebuilt.add((loc, idx))
            STORE_CACHE_INVALIDATIONS.inc()
        keying.watermark = int(records.seq[fresh[-1]]) + 1
        keying.folded += len(fresh)


class OracleStore(ShardedStore):
    """A :class:`ShardedStore` whose shards cache with :class:`TupleCache`."""

    def _layout(self, shard_map):
        super()._layout(shard_map)
        for shard in self._shards:
            shard.cache = TupleCache()
