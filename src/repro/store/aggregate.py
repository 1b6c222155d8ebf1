"""Downsampled-aggregate cache.

Repeated range queries over full-Mira data are the envdb's dominant
read load (every figure regeneration scans the same windows), and the
live poll loop asks for the newest window after every sweep.  Instead
of re-reducing O(records) per query, each shard keeps min/mean/max per
(location, window) per field: built from one scan on first use, then
kept current by folding only the records ingested since the last read
— so a cycle's rollup costs O(new records + matching windows), however
long the history grows.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.instruments import (
    STORE_CACHE_HITS,
    STORE_CACHE_INVALIDATIONS,
    STORE_CACHE_MISSES,
)
from repro.store.reading import Reading


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


class _Keying:
    """One ``(table, field, window_s)`` entry: the location → window
    index → ``[count, min, max, total, last_timestamp]`` map, plus the
    ingest watermark it is current up to."""

    __slots__ = ("built", "watermark", "folded")

    def __init__(self, built: dict[str, dict[int, list]], watermark: int,
                 folded: int):
        self.built = built
        #: The next global ingest sequence not yet folded.
        self.watermark = watermark
        #: Records of the table folded so far (with or without the field).
        self.folded = folded


def _fold(by_window: dict[int, list], idx: int, value: float,
          timestamp: float) -> None:
    acc = by_window.get(idx)
    if acc is None:
        by_window[idx] = [1, value, value, value, timestamp]
        return
    acc[0] += 1
    if value < acc[1]:
        acc[1] = value
    if value > acc[2]:
        acc[2] = value
    acc[3] += value
    acc[4] = timestamp


class AggregateCache:
    """Per-shard cache of per-(location, window) field aggregates.

    One cache instance serves one shard.  Entries are keyed by
    ``(table, field, window_s)``; each maps location → window index →
    ``[count, min, max, total, last_timestamp]``, folded in (timestamp,
    ingest sequence) order — the order a fresh build from the shard's
    sorted run uses, so the float ``total`` is the same to the bit.

    A keying survives ingests.  Each read first folds the records the
    shard ingested since the keying's watermark.  A record that sorts
    behind its window's last folded key (a late backfill) rebuilds only
    that (location, window) from the sorted run.  At most
    :data:`MAX_KEYINGS` keyings stay cached, least recently read first
    out.
    """

    def __init__(self):
        self._entries: OrderedDict[tuple[str, str, float], _Keying] = \
            OrderedDict()

    def windows(self, table: str, field: str, window_s: float,
                records: list[Reading],
                source) -> dict[str, dict[int, list]]:
        """The (location → window → accumulator) map for one keying.

        ``records`` is the shard table's (timestamp, sequence)-ordered
        run, which a miss builds from; ``source`` is that shard table,
        whose ingest log (``tail_slice``) feeds the fold on a hit.
        """
        key = (table, field, float(window_s))
        keying = self._entries.get(key)
        if keying is not None:
            self._entries.move_to_end(key)
            seqs, fresh = source.tail_slice(keying.watermark)
            if keying.folded + len(seqs) == len(records):
                STORE_CACHE_HITS.inc()
                self._fold_tail(keying, field, window_s, records, seqs, fresh)
                return keying.built
            # A record landed behind the watermark (a writer that took
            # its sequence number before the last read but inserted
            # after it): refold from scratch rather than miss it.
        STORE_CACHE_MISSES.inc()
        built: dict[str, dict[int, list]] = {}
        for reading in records:
            value = reading.values.get(field)
            if value is None:
                continue
            _fold(built.setdefault(reading.location, {}),
                  window_index(reading.timestamp, window_s), value,
                  reading.timestamp)
        watermark = source.log_seqs[-1] + 1 if source.log_seqs else 0
        self._entries[key] = _Keying(built, watermark, len(records))
        if len(self._entries) > MAX_KEYINGS:
            self._entries.popitem(last=False)
            STORE_CACHE_INVALIDATIONS.inc()
        return built

    @staticmethod
    def _fold_tail(keying: _Keying, field: str, window_s: float,
                   records: list[Reading], seqs: list[int],
                   fresh: list[Reading]) -> None:
        """Fold the records ingested since the watermark, in ingest
        order, and advance the watermark past them."""
        if not seqs:
            return
        built = keying.built
        rebuilt: set[tuple[str, int]] = set()
        for reading in fresh:
            value = reading.values.get(field)
            if value is None:
                continue
            location, timestamp = reading.location, reading.timestamp
            idx = window_index(timestamp, window_s)
            if rebuilt and (location, idx) in rebuilt:
                continue  # the rebuild already read it from the run
            by_window = built.setdefault(location, {})
            acc = by_window.get(idx)
            # Every folded record has a smaller sequence, so a tie on
            # timestamp still sorts this one after them.
            if acc is None or timestamp >= acc[4]:
                _fold(by_window, idx, value, timestamp)
                continue
            del by_window[idx]
            _rebuild_window(by_window, records, location, field, idx,
                            window_s)
            rebuilt.add((location, idx))
            STORE_CACHE_INVALIDATIONS.inc()
        keying.watermark = seqs[-1] + 1
        keying.folded += len(seqs)

    @staticmethod
    def select(built: dict[str, dict[int, list]], field: str,
               window_s: float, t0: float, t1: float,
               location_prefix: str) -> list[Aggregate]:
        """Materialize the aggregates intersecting ``[t0, t1]`` for
        locations matching ``location_prefix``.

        Per location it walks whichever is shorter: the requested span
        of window indexes, or the windows that exist — so a query's
        cost follows the data, never the width of ``[t0, t1]``.
        """
        lo = window_index(t0, window_s)
        hi = window_index(t1, window_s)
        out: list[Aggregate] = []
        for location, by_window in built.items():
            if not location.startswith(location_prefix):
                continue
            if hi - lo < len(by_window):
                indexes = range(lo, hi + 1)
            else:
                present = sorted(by_window)
                indexes = present[bisect_left(present, lo):
                                  bisect_right(present, hi)]
            for idx in indexes:
                acc = by_window.get(idx)
                if acc is None:
                    continue
                out.append(Aggregate(
                    location=location, field=field,
                    window_start=idx * window_s, window_s=window_s,
                    count=int(acc[0]), minimum=acc[1], maximum=acc[2],
                    total=acc[3],
                ))
        return out


def _rebuild_window(by_window: dict[int, list], records: list[Reading],
                    location: str, field: str, idx: int,
                    window_s: float) -> None:
    """Refold one (location, window) from the (timestamp, sequence)-
    ordered run, exactly as a fresh build would."""
    def index_of(reading: Reading) -> int:
        return window_index(reading.timestamp, window_s)

    lo = bisect_left(records, idx, key=index_of)
    hi = bisect_right(records, idx, lo=lo, key=index_of)
    for reading in records[lo:hi]:
        if reading.location != location:
            continue
        value = reading.values.get(field)
        if value is not None:
            _fold(by_window, idx, value, reading.timestamp)
