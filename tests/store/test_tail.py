"""The ingest-ordered tail: cursor resume, prefix filtering, paging,
multi-shard merge, and the ingest-order (not time-order) contract."""

import pytest

from repro.errors import ConfigError
from repro.obs.instruments import STORE_QUERIES
from repro.store import Reading, ShardedStore

TABLES = ("bpm", "fan")


def _reading(t, location, watts=1.0):
    return Reading(t, location, "envdb", {"input_power_w": watts})


def _racks(n):
    return [f"R{r:02d}-M0-N00-BPM" for r in range(n)]


class TestTail:
    def test_tail_from_zero_sees_everything_in_ingest_order(self):
        store = ShardedStore(TABLES, n_shards=4)
        locations = _racks(8)
        for i, loc in enumerate(locations):
            store.ingest("bpm", _reading(float(i), loc))
        batch = store.tail("bpm")
        assert [r.location for r in batch.readings] == locations
        assert batch.cursor == store.ingest_cursor

    def test_cursor_resumes_exactly(self):
        store = ShardedStore(TABLES, n_shards=4)
        for i, loc in enumerate(_racks(4)):
            store.ingest("bpm", _reading(float(i), loc))
        first = store.tail("bpm")
        assert store.tail("bpm", first.cursor).readings == ()
        store.ingest("bpm", _reading(99.0, "R99-M0-N00-BPM"))
        fresh = store.tail("bpm", first.cursor)
        assert [r.location for r in fresh.readings] == ["R99-M0-N00-BPM"]
        assert fresh.cursor == first.cursor + 1

    def test_tail_is_ingest_order_not_time_order(self):
        # A late-arriving backfill (older timestamp, newer seq) still
        # reaches a tailing consumer — range() would sort it backward.
        store = ShardedStore(TABLES)
        store.ingest("bpm", _reading(10.0, "R00-M0-N00-BPM"))
        cursor = store.ingest_cursor
        store.ingest("bpm", _reading(5.0, "R00-M0-N00-BPM", watts=2.0))
        batch = store.tail("bpm", cursor)
        assert [r.timestamp for r in batch.readings] == [5.0]

    def test_prefix_filter_and_cursor_advance(self):
        store = ShardedStore(TABLES, n_shards=4)
        for i, loc in enumerate(_racks(6)):
            store.ingest("bpm", _reading(float(i), loc))
        batch = store.tail("bpm", location_prefix="R03")
        assert [r.location for r in batch.readings] == ["R03-M0-N00-BPM"]
        # Non-matching records already scanned don't come back.
        assert store.tail("bpm", batch.cursor,
                          location_prefix="R03").readings == ()

    def test_limit_pages_without_skipping(self):
        store = ShardedStore(TABLES, n_shards=4)
        locations = _racks(10)
        for i, loc in enumerate(locations):
            store.ingest("bpm", _reading(float(i), loc))
        seen = []
        cursor = 0
        while True:
            batch = store.tail("bpm", cursor, limit=3)
            if not batch.readings:
                break
            seen.extend(r.location for r in batch.readings)
            cursor = batch.cursor
        assert seen == locations

    def test_merge_is_seq_ordered_across_shards(self):
        # Interleave ingests across racks that land on different
        # shards; tail must return the global interleaving.
        store = ShardedStore(TABLES, n_shards=8)
        order = []
        for i in range(20):
            loc = f"R{i % 5:02d}-M0-N00-BPM"
            store.ingest("bpm", _reading(float(i), loc, watts=float(i)))
            order.append(float(i))
        batch = store.tail("bpm")
        assert [r.values["input_power_w"] for r in batch.readings] == order

    def test_tail_plans_like_other_queries(self):
        store = ShardedStore(TABLES, n_shards=8)
        plan = store.plan("tail", "bpm", "R00-M0")
        assert plan.kind == "tail"
        assert plan.fan_out == 1
        assert not plan.uses_cache
        assert store.plan("tail", "bpm").fan_out == 8

    def test_tail_counts_in_store_metrics(self):
        store = ShardedStore(TABLES)
        store.ingest("bpm", _reading(0.0, "R00-M0-N00-BPM"))
        before = STORE_QUERIES.value("tail")
        store.tail("bpm")
        assert STORE_QUERIES.value("tail") == before + 1

    def test_validation(self):
        store = ShardedStore(TABLES)
        with pytest.raises(ConfigError, match="cursor"):
            store.tail("bpm", cursor=-1)
        with pytest.raises(ConfigError, match="limit"):
            store.tail("bpm", limit=0)
        with pytest.raises(ConfigError, match="no table"):
            store.tail("coolant")

    def test_ingest_cursor_starts_future_tails(self):
        store = ShardedStore(TABLES)
        store.ingest("bpm", _reading(0.0, "R00-M0-N00-BPM"))
        cursor = store.ingest_cursor
        assert store.tail("bpm", cursor).readings == ()
        store.ingest("fan", _reading(1.0, "R00-M0-N00-F00"))
        assert store.tail("bpm", cursor).readings == ()  # other table
        assert len(store.tail("fan", cursor)) == 1


class TestCursorPastHead:
    """A cursor beyond the ingest head would page forever with no row
    ever reaching it; it is an error, and the head itself is legal."""

    def test_cursor_past_head_rejected(self):
        store = ShardedStore(TABLES, n_shards=2)
        store.ingest("bpm", _reading(1.0, "R00-M0-N00-BPM"))
        with pytest.raises(ConfigError, match="past the ingest head 1"):
            store.tail("bpm", 10**30)
        with pytest.raises(ConfigError, match="tail cursor 2 is past"):
            store.tail("bpm", 2)

    def test_cursor_at_head_is_an_empty_page(self):
        store = ShardedStore(TABLES)
        store.ingest("bpm", _reading(1.0, "R00-M0-N00-BPM"))
        batch = store.tail("bpm", store.ingest_cursor)
        assert batch.readings == ()
        assert batch.cursor == store.ingest_cursor == 1
        assert ShardedStore(TABLES).tail("fan", 0).cursor == 0
