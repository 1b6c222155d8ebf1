"""Downsampled aggregates and the per-shard cache."""

import pytest

from repro.errors import ConfigError
from repro.obs.instruments import (
    STORE_CACHE_HITS,
    STORE_CACHE_INVALIDATIONS,
    STORE_CACHE_MISSES,
)
from repro.store import Reading, ShardedStore, window_index
from repro.store.aggregate import MAX_KEYINGS

TABLES = ("bpm",)
LOC = "R00-M0-N00"


def _store_with(samples):
    store = ShardedStore(TABLES)
    for t, location, watts in samples:
        store.ingest("bpm", Reading(t, location, "envdb",
                                    {"input_power_w": watts}))
    return store


class TestWindowIndex:
    def test_floor_semantics(self):
        assert window_index(0.0, 60.0) == 0
        assert window_index(59.9, 60.0) == 0
        assert window_index(60.0, 60.0) == 1
        assert window_index(-0.1, 60.0) == -1


class TestAggregateValues:
    def test_min_mean_max_per_location_window(self):
        store = _store_with([
            (10.0, LOC, 100.0),
            (20.0, LOC, 300.0),
            (70.0, LOC, 50.0),           # next 60 s window
            (15.0, "R01-M0-N00", 40.0),  # other location, same window
        ])
        aggs = store.aggregate("bpm", "input_power_w", 0.0, 120.0, 60.0)
        by_key = {(a.location, a.window_start): a for a in aggs}
        first = by_key[(LOC, 0.0)]
        assert (first.count, first.minimum, first.maximum) == (2, 100.0, 300.0)
        assert first.mean == pytest.approx(200.0)
        assert first.window_end == 60.0
        assert by_key[(LOC, 60.0)].count == 1
        assert by_key[("R01-M0-N00", 0.0)].maximum == 40.0
        # Deterministic order: window start, then location.
        assert [(a.window_start, a.location) for a in aggs] == \
            sorted((a.window_start, a.location) for a in aggs)

    def test_prefix_and_window_selection(self):
        store = _store_with([
            (10.0, LOC, 1.0), (70.0, LOC, 2.0), (10.0, "R01-M0-N00", 3.0),
        ])
        aggs = store.aggregate("bpm", "input_power_w", 60.0, 120.0, 60.0,
                               location_prefix="R00")
        assert [(a.location, a.window_start) for a in aggs] == [(LOC, 60.0)]

    def test_records_missing_the_field_are_skipped(self):
        store = ShardedStore(TABLES)
        store.ingest("bpm", Reading(5.0, LOC, "envdb", {"other": 1.0}))
        assert store.aggregate("bpm", "other", 0.0, 60.0, 60.0)[0].count == 1
        assert store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0) == []

    def test_window_must_be_positive(self):
        store = _store_with([(10.0, LOC, 1.0)])
        with pytest.raises(ConfigError, match="window must be positive"):
            store.aggregate("bpm", "input_power_w", 0.0, 60.0, 0.0)


class TestCacheLifecycle:
    def test_one_miss_then_hits_that_fold_new_records(self):
        store = _store_with([(10.0, LOC, 1.0), (20.0, LOC, 2.0)])
        first = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        assert STORE_CACHE_MISSES.value() == 1.0
        assert STORE_CACHE_HITS.value() == 0.0

        again = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        assert again == first
        assert STORE_CACHE_HITS.value() == 1.0

        # Ingest leaves the keying alive; the next read folds the record.
        store.ingest("bpm", Reading(30.0, LOC, "envdb",
                                    {"input_power_w": 9.0}))
        refreshed = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        assert STORE_CACHE_MISSES.value() == 1.0
        assert STORE_CACHE_HITS.value() == 2.0
        assert STORE_CACHE_INVALIDATIONS.value() == 0.0
        assert (refreshed[0].count, refreshed[0].maximum,
                refreshed[0].total) == (3, 9.0, 12.0)
        fresh = _store_with([(10.0, LOC, 1.0), (20.0, LOC, 2.0),
                             (30.0, LOC, 9.0)])
        assert refreshed == fresh.aggregate("bpm", "input_power_w",
                                            0.0, 60.0, 60.0)

        # The watermark moved past the folded record: the next round
        # folds only its own record, still without a rebuild.
        misses = STORE_CACHE_MISSES.value()
        store.ingest("bpm", Reading(40.0, LOC, "envdb",
                                    {"input_power_w": 4.0}))
        last = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        assert (last[0].count, last[0].total) == (4, 16.0)
        assert STORE_CACHE_MISSES.value() == misses

    def test_each_window_size_caches_independently(self):
        store = _store_with([(10.0, LOC, 1.0)])
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 30.0)
        assert STORE_CACHE_MISSES.value() == 2.0
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 30.0)
        assert STORE_CACHE_HITS.value() == 1.0

    def test_late_record_rebuilds_only_its_window(self):
        # Summed in ingest order window 0 would total 1.0; in (timestamp,
        # sequence) order, as a fresh build sums it, 1e16 + 1.0 rounds
        # back to 1e16 and the total is 0.0.
        samples = [(10.0, LOC, 1e16), (20.0, LOC, -1e16), (70.0, LOC, 5.0)]
        store = _store_with(samples)
        store.aggregate("bpm", "input_power_w", 0.0, 120.0, 60.0)
        # The 25.0 record comes after the late one in the same window:
        # the window's rebuild already read it, so it is not folded again.
        late = [(15.0, LOC, 1.0), (25.0, LOC, 3.0), (80.0, LOC, 6.0)]
        for t, location, watts in late:
            store.ingest("bpm", Reading(t, location, "envdb",
                                        {"input_power_w": watts}))
        result = store.aggregate("bpm", "input_power_w", 0.0, 120.0, 60.0)
        assert STORE_CACHE_MISSES.value() == 1.0
        assert STORE_CACHE_INVALIDATIONS.value() == 1.0  # window 0 only
        assert [(a.window_start, a.count, a.total) for a in result] == \
            [(0.0, 4, 3.0), (60.0, 2, 11.0)]
        fresh = _store_with(samples + late)
        assert result == fresh.aggregate("bpm", "input_power_w",
                                         0.0, 120.0, 60.0)

    def test_sharded_caches_fold_independently(self):
        store = ShardedStore(TABLES, n_shards=8)
        other = "R01-M0-N00"
        assert store.shard_map.shard_of(LOC) != store.shard_map.shard_of(other)
        for location in (LOC, other):
            store.ingest("bpm", Reading(10.0, location, "envdb",
                                        {"input_power_w": 1.0}))
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0, LOC[:6])
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0, other[:6])
        assert STORE_CACHE_MISSES.value() == 2.0
        # Ingest into LOC's shard: that shard folds it, the other shard
        # has nothing new; neither rebuilds.
        store.ingest("bpm", Reading(20.0, LOC, "envdb",
                                    {"input_power_w": 2.0}))
        mine = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0,
                               LOC[:6])
        theirs = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0,
                                 other[:6])
        assert STORE_CACHE_MISSES.value() == 2.0
        assert STORE_CACHE_HITS.value() == 2.0
        assert [a.count for a in mine] == [2]
        assert [a.count for a in theirs] == [1]

    def test_keyings_per_shard_are_capped(self):
        samples = [(t, loc, t) for t in (5.0, 65.0, 125.0)
                   for loc in (LOC, "R01-M0-N00")]
        store = ShardedStore(TABLES, n_shards=2)
        for t, location, watts in samples:
            store.ingest("bpm", Reading(t, location, "envdb",
                                        {"input_power_w": watts}))
        windows = [10.0 + i for i in range(40)]
        for window in windows:
            store.aggregate("bpm", "input_power_w", 0.0, 200.0, window)
        # Every query reads both shards; each shard evicted all but the
        # newest MAX_KEYINGS keyings.
        assert STORE_CACHE_INVALIDATIONS.value() == 2 * (40 - MAX_KEYINGS)
        misses = STORE_CACHE_MISSES.value()
        for window in windows[-MAX_KEYINGS:]:
            store.aggregate("bpm", "input_power_w", 0.0, 200.0, window)
        assert STORE_CACHE_MISSES.value() == misses
        # An evicted keying rebuilds, equal to a fresh build.
        evicted = store.aggregate("bpm", "input_power_w", 0.0, 200.0,
                                  windows[0])
        assert STORE_CACHE_MISSES.value() == misses + 2
        assert evicted == _store_with(samples).aggregate(
            "bpm", "input_power_w", 0.0, 200.0, windows[0])


class _CountingNames(list):
    """A table's location names that count the lookups made of them."""

    lookups = 0

    def __getitem__(self, index):
        type(self).lookups += 1
        return super().__getitem__(index)


def _cells(samples, window_s=60.0):
    """One shard's cells for ``samples`` and the table's names, counting."""
    store = _store_with(samples)
    shard = store._shards[0]
    view = shard.tables["bpm"].view()
    cells = shard.cache.windows("bpm", "input_power_w", window_s, view)
    _CountingNames.lookups = 0
    return cells, _CountingNames(view.locations)


class TestSelectCost:
    def test_wide_span_walks_only_existing_windows(self):
        cells, names = _cells([(i * 60.0, LOC, 2.0) for i in (0, 5, 9)])
        out = cells.select(60.0, -1e12, 1e12, "", names)
        assert [start for start, *_ in out] == [0.0, 300.0, 540.0]
        assert _CountingNames.lookups <= 3

    def test_narrow_span_walks_only_the_span(self):
        cells, names = _cells([(i * 60.0, LOC, 2.0) for i in range(100)])
        out = cells.select(60.0, 60.0, 120.0, "", names)
        assert [start for start, *_ in out] == [60.0, 120.0]
        assert _CountingNames.lookups == 2

    def test_prefix_cost_follows_the_matching_cells(self):
        # 50 locations hold the old window; two hold the newest one.
        samples = [(30.0, f"R{i:02d}-M0-N00", 1.0) for i in range(50)]
        samples += [(6000.0 + i, LOC, 2.0) for i in range(3)]
        samples += [(6000.0, "R01-M0-N00", 3.0)]
        cells, names = _cells(samples)
        cells.select(60.0, 0.0, 60.0, "R4", names)  # sorts the names once
        _CountingNames.lookups = 0
        out = cells.select(60.0, 6000.0, 6060.0, "R00", names)
        assert [(start, location, count) for start, location, count, *_
                in out] == [(6000.0, LOC, 3)]
        assert _CountingNames.lookups == 1  # the one cell out
        assert cells.select(60.0, -1e12, 1e12, "R9", names) == []
        assert _CountingNames.lookups == 1


class TestNonFiniteInput:
    @pytest.mark.parametrize("t0, t1, window", [
        (0.0, float("nan"), 60.0),
        (float("nan"), 60.0, 60.0),
        (0.0, 60.0, float("nan")),
        (0.0, float("inf"), 60.0),
        (float("-inf"), 60.0, 60.0),
        (0.0, 60.0, float("inf")),
        (0.0, 1e300, 1e-300),
    ])
    def test_rejected_with_config_error(self, t0, t1, window):
        store = _store_with([(10.0, LOC, 1.0)])
        with pytest.raises(ConfigError):
            store.aggregate("bpm", "input_power_w", t0, t1, window)

    def test_window_too_small_for_the_stored_timestamps(self):
        # Window indexes past 2**38 would overflow the cells' int64 keys.
        store = _store_with([(10.0, LOC, 1.0), (1e9, LOC, 2.0)])
        with pytest.raises(ConfigError, match="cannot key"):
            store.aggregate("bpm", "input_power_w", 0.0, 20.0, 1e-3)
        assert len(store.aggregate("bpm", "input_power_w", 0.0, 20.0,
                                   1.0)) == 1
