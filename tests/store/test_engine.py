"""The sharded store engine: ingest, queries, capacity, metrics."""

import pytest

from repro.errors import ConfigError
from repro.obs.instruments import (
    STORE_BATCH_RECORDS,
    STORE_BATCHES,
    STORE_DROPPED,
    STORE_QUERIES,
    STORE_QUERY_ROWS,
    STORE_RECORDS,
)
from repro.store import Batch, Reading, ShardedStore

TABLES = ("bpm", "fan")


def _reading(t, location, watts=1.0):
    return Reading(t, location, "envdb", {"input_power_w": watts})


class TestConstruction:
    def test_needs_tables(self):
        with pytest.raises(ConfigError, match="at least one table"):
            ShardedStore(())

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError, match="capacity"):
            ShardedStore(TABLES, capacity_records_per_s=0.0)

    def test_unknown_table_error_matches_seed_wording(self):
        store = ShardedStore(TABLES)
        with pytest.raises(ConfigError,
                           match=r"no table 'coolant'; have \['bpm', 'fan'\]"):
            store.ingest("coolant", _reading(0.0, "R00-M0-N00"))

    def test_inverted_window_rejected(self):
        store = ShardedStore(TABLES)
        with pytest.raises(ConfigError, match="query window inverted"):
            store.range("bpm", 5.0, 1.0)

    @pytest.mark.parametrize("t0, t1, name", [
        (float("nan"), 4.0, "t0"), (0.0, float("nan"), "t1"),
        (float("nan"), float("nan"), "t0"),
    ])
    def test_nan_bound_rejected_naming_it(self, t0, t1, name):
        """A NaN bound compares false both ways, so it would silently
        return some rows or none; it is an error naming the bound."""
        store = ShardedStore(TABLES)
        for t in (1.0, 2.0, 3.0):
            store.ingest("bpm", _reading(t, "R00-M0-N00"))
        with pytest.raises(ConfigError, match=f"query bound {name} is NaN"):
            store.range("bpm", t0, t1)

    def test_infinite_bounds_stay_open_ends(self):
        store = ShardedStore(TABLES)
        for t in (-1e300, 2.0, 1e300):
            store.ingest("bpm", _reading(t, "R00-M0-N00"))
        assert len(store.range("bpm", float("-inf"), float("inf"))) == 3
        assert len(store.prefix("bpm", "R00")) == 3


class TestRangeOrdering:
    def test_timestamp_then_ingest_order(self):
        store = ShardedStore(TABLES, n_shards=4)
        first = _reading(2.0, "R00-M0-N00", 1.0)
        second = _reading(2.0, "R17-M1-N09", 2.0)  # same t, later ingest
        earlier = _reading(1.0, "R31-M0-N02", 3.0)
        for reading in (first, second, earlier):
            store.ingest("bpm", reading)
        assert store.range("bpm", 0.0, 10.0) == [earlier, first, second]

    def test_window_bounds_are_inclusive(self):
        store = ShardedStore(TABLES)
        for t in (1.0, 2.0, 3.0):
            store.ingest("bpm", _reading(t, "R00-M0-N00"))
        rows = store.range("bpm", 1.0, 2.0)
        assert [r.timestamp for r in rows] == [1.0, 2.0]

    def test_prefix_filters_within_the_pinned_shard(self):
        store = ShardedStore(TABLES, n_shards=4)
        keep = _reading(1.0, "R00-M0-N00")
        store.ingest("bpm", keep)
        store.ingest("bpm", _reading(1.0, "R00-M1-N00"))  # same shard
        assert store.range("bpm", 0.0, 2.0, "R00-M0") == [keep]

    def test_prefix_query_spans_all_time(self):
        store = ShardedStore(TABLES, n_shards=4)
        store.ingest("bpm", _reading(-50.0, "R00-M0-N00"))
        store.ingest("bpm", _reading(1e9, "R00-M0-N01"))
        assert len(store.prefix("bpm", "R00-M0")) == 2


class TestLatest:
    def test_latest_per_location_with_tie_to_newest_ingest(self):
        store = ShardedStore(TABLES, n_shards=4)
        store.ingest("bpm", _reading(1.0, "R00-M0-N00", 1.0))
        newest = _reading(1.0, "R00-M0-N00", 2.0)  # same t, later ingest
        store.ingest("bpm", newest)
        other = _reading(0.5, "R19-M0-N00", 3.0)
        store.ingest("bpm", other)
        assert store.latest("bpm") == {"R00-M0-N00": newest,
                                       "R19-M0-N00": other}
        assert store.latest("bpm", "R19") == {"R19-M0-N00": other}


class TestCapacity:
    def test_direct_ingest_is_never_capped(self):
        store = ShardedStore(TABLES, capacity_records_per_s=1.0)
        for i in range(50):
            store.ingest("bpm", _reading(float(i), "R00-M0-N00"))
        assert store.records_ingested == 50
        assert store.dropped_records == 0

    def test_batch_budget_is_capacity_times_interval(self):
        store = ShardedStore(TABLES, capacity_records_per_s=2.0)
        items = [("bpm", _reading(float(i), "R00-M0-N00")) for i in range(10)]
        report = store.ingest_batch(Batch.of_readings(items), interval_s=3.0)
        assert report.accepted == 6  # floor(2.0 * 3.0)
        assert report.dropped == 4
        assert report.drop_fraction == pytest.approx(0.4)
        assert store.records_by_shard == {0: 6}
        assert store.dropped_by_shard == {0: 4}

    def test_budget_applies_per_batch_call(self):
        store = ShardedStore(TABLES, capacity_records_per_s=1.0)
        for sweep in range(2):
            items = [("bpm", _reading(10.0 * sweep + i, "R00-M0-N00"))
                     for i in range(5)]
            report = store.ingest_batch(Batch.of_readings(items), interval_s=2.0)
            assert (report.accepted, report.dropped) == (2, 3)
        # Each call gets a fresh budget; the dropped records are each
        # batch's tail in offered order.
        kept = [r.timestamp for r in store.range("bpm", 0.0, 100.0)]
        assert kept == [0.0, 1.0, 10.0, 11.0]
        assert store.dropped_records == 6

    def test_uncapped_store_accepts_everything(self):
        store = ShardedStore(TABLES)
        items = [("bpm", _reading(float(i), "R00-M0-N00")) for i in range(10)]
        report = store.ingest_batch(Batch.of_readings(items), interval_s=1.0)
        assert report.dropped == 0
        assert store.capacity_fraction(["R00-M0-N00"] * 100, 1.0) == 0.0

    def test_nonpositive_interval_rejected(self):
        store = ShardedStore(TABLES)
        with pytest.raises(ConfigError, match="interval must be positive"):
            store.ingest_batch(Batch(()), interval_s=0.0)
        with pytest.raises(ConfigError, match="interval must be positive"):
            store.sweep_load(["R00"], 0.0)

    def test_sweep_load_is_per_shard(self):
        store = ShardedStore(TABLES, n_shards=8, capacity_records_per_s=10.0)
        locations = ["R00-M0-N00"] * 25 + ["R01-M0-N00"] * 5
        load = store.sweep_load(locations, interval_s=1.0)
        hot = store.shard_map.shard_of("R00-M0-N00")
        cold = store.shard_map.shard_of("R01-M0-N00")
        assert load[hot] == pytest.approx(2.5)
        assert load[cold] == pytest.approx(0.5)
        assert store.capacity_fraction(locations, 1.0) == pytest.approx(2.5)


class TestMetrics:
    def test_ingest_and_query_families(self):
        store = ShardedStore(TABLES, n_shards=2, capacity_records_per_s=3.0)
        items = [("bpm", _reading(float(i), "R00-M0-N00")) for i in range(5)]
        store.ingest_batch(Batch.of_readings(items), interval_s=1.0)
        shard = str(store.shard_map.shard_of("R00-M0-N00"))
        assert STORE_RECORDS.value(shard) == 3.0
        assert STORE_DROPPED.value(shard) == 2.0
        assert STORE_BATCHES.value() == 1.0
        store.range("bpm", 0.0, 10.0)
        assert STORE_QUERIES.value("range") == 1.0
        assert STORE_QUERY_ROWS.value() == 3.0
        store.latest("bpm")
        assert STORE_QUERIES.value("latest") == 1.0

    def test_batch_is_one_observation_and_one_increment_per_shard(self):
        """A batch's size is one histogram observation and each shard's
        accepted records one counter increment; direct ingest counts its
        record alone."""
        store = ShardedStore(TABLES, n_shards=2)
        hot, cold = "R00-M0-N00", "R04-M0-N00"
        assert store.shard_map.shard_of(hot) != store.shard_map.shard_of(cold)
        items = [("bpm", _reading(float(i), hot)) for i in range(4)]
        items.append(("fan", _reading(0.0, cold)))
        report = store.ingest_batch(Batch.of_readings(items), interval_s=60.0)
        assert report.offered == report.accepted == 5
        assert store.records_ingested == 5
        assert STORE_BATCHES.value() == 1.0
        sizes = STORE_BATCH_RECORDS.child()
        assert (sizes.count, sizes.sum) == (1, 5.0)
        by_shard = {shard: STORE_RECORDS.value(str(shard))
                    for shard in range(2)}
        assert by_shard[store.shard_map.shard_of(hot)] == 4.0
        assert by_shard[store.shard_map.shard_of(cold)] == 1.0
        store.ingest("bpm", _reading(9.0, cold))
        assert STORE_RECORDS.value(str(store.shard_map.shard_of(cold))) == 2.0

    def test_batch_with_unknown_table_ingests_nothing(self):
        store = ShardedStore(TABLES)
        items = [("bpm", _reading(0.0, "R00-M0-N00")),
                 ("gpu", _reading(1.0, "R00-M0-N00"))]
        with pytest.raises(ConfigError, match="no table 'gpu'"):
            store.ingest_batch(Batch.of_readings(items), interval_s=1.0)
        assert store.records_ingested == 0
        assert STORE_RECORDS.value("0") == 0.0
