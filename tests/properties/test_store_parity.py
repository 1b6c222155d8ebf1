"""Property tests: the sharded store vs the seed's flat record list.

The seed envdb kept one flat list ordered by timestamp (timestamp ties
in ingest order) and answered range queries by bisect plus a prefix
filter.  The sharded store must be *byte-identical* to that at N=1 —
and, because per-shard runs merge by (timestamp, global ingest
sequence), at every other shard count too.  A second group checks the
capacity model: dropped records are accounted to the shard that
saturated, and only that shard loses data.  A third checks that the
incremental aggregate cache — keyings that fold new records on read —
answers exactly as a store built fresh from the same records.  A
fourth drives mixed streams — several mechanisms and field schemas in
one table, NaN values, late and tied timestamps, capacity drops and
reshards — and compares every query kind with the reference by
``repr`` (so NaN and -0.0 compare exactly).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.store import Aggregate, Batch, Reading, ShardedStore, ShardMap
from repro.store.aggregate import window_index

TABLES = ("bpm", "coolant")

locations = st.builds(
    lambda r, m, n: f"R{r:02d}-M{m}-N{n:02d}",
    st.integers(0, 5), st.integers(0, 1), st.integers(0, 3),
)
readings = st.builds(
    lambda t, loc, v: Reading(t, loc, "envdb", {"input_power_w": v}),
    st.floats(min_value=0.0, max_value=100.0),
    locations,
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
)
prefixes = st.sampled_from(["", "R00", "R01", "R02-M1", "R03-M0-N02", "R9"])
windows = st.tuples(
    st.floats(min_value=-10.0, max_value=110.0),
    st.floats(min_value=-10.0, max_value=110.0),
).map(lambda pair: (min(pair), max(pair)))


class FlatListReference:
    """The seed envdb's storage model: one flat list per table, range
    queries answered in timestamp order with ingest order breaking
    ties.  Records keep their ingest sequence (a count over every
    table), so the reference also answers tails, drops a saturating
    shard's batch tail, and folds aggregates the plain way."""

    def __init__(self):
        self._records: list[tuple[str, int, Reading]] = []
        self._seq = 0

    def ingest(self, reading: Reading, table: str = "bpm") -> None:
        self._records.append((table, self._seq, reading))
        self._seq += 1

    def ingest_batch(self, items: list[tuple[str, Reading]], budget: int,
                     shard_of) -> dict[int, int]:
        """Each shard keeps its first ``budget`` rows in offered order;
        returns the drops per shard."""
        offered: dict[int, int] = {}
        dropped: dict[int, int] = {}
        for table, reading in items:
            index = shard_of(reading.location)
            offered[index] = offered.get(index, 0) + 1
            if offered[index] > budget:
                dropped[index] = dropped.get(index, 0) + 1
            else:
                self.ingest(reading, table)
        return dropped

    def _table(self, table: str) -> list[tuple[int, Reading]]:
        return [(seq, r) for name, seq, r in self._records if name == table]

    def range(self, t0: float, t1: float, prefix: str = "",
              table: str = "bpm") -> list[Reading]:
        ordered = sorted((r for _, r in self._table(table)),
                         key=lambda r: r.timestamp)  # stable
        return [r for r in ordered
                if t0 <= r.timestamp <= t1
                and r.location.startswith(prefix)]

    def latest(self, prefix: str = "", table: str = "bpm") -> dict[str, Reading]:
        out: dict[str, Reading] = {}
        for _, reading in self._table(table):  # ingest order; later ties win
            if not reading.location.startswith(prefix):
                continue
            newest = out.get(reading.location)
            if newest is None or reading.timestamp >= newest.timestamp:
                out[reading.location] = reading
        return out

    def tail(self, table: str, cursor: int, prefix: str,
             limit: int | None, shard_map: ShardMap) -> tuple[list[Reading],
                                                              int]:
        """A tail page; only rows on the shards the prefix routes to
        are scanned, so only they move the cursor."""
        scanned = set(shard_map.shards_for_prefix(prefix))
        out: list[Reading] = []
        next_cursor = cursor
        for seq, reading in self._table(table):
            if seq < cursor or shard_map.shard_of(reading.location) \
                    not in scanned:
                continue
            if not reading.location.startswith(prefix):
                next_cursor = seq + 1
                continue
            if limit is not None and len(out) >= limit:
                break
            out.append(reading)
            next_cursor = seq + 1
        return out, next_cursor

    def aggregate(self, table: str, field: str, t0: float, t1: float,
                  window_s: float, prefix: str) -> list[Aggregate]:
        acc: dict[tuple[str, int], list] = {}
        for reading in self.range(-math.inf, math.inf, "", table):
            if field not in reading.values:
                continue
            value = reading.values[field]
            key = (reading.location, window_index(reading.timestamp, window_s))
            a = acc.get(key)
            if a is None:
                acc[key] = [1, value, value, value]
                continue
            a[0] += 1
            if value < a[1]:
                a[1] = value
            if value > a[2]:
                a[2] = value
            a[3] += value
        lo, hi = window_index(t0, window_s), window_index(t1, window_s)
        out = [Aggregate(location=loc, field=field,
                         window_start=idx * window_s, window_s=window_s,
                         count=a[0], minimum=a[1], maximum=a[2], total=a[3])
               for (loc, idx), a in acc.items()
               if lo <= idx <= hi and loc.startswith(prefix)]
        out.sort(key=lambda a: (a.window_start, a.location))
        return out


def _stores(n_shards: int) -> tuple[ShardedStore, FlatListReference]:
    return ShardedStore(TABLES, n_shards=n_shards), FlatListReference()


class TestSeedParity:
    @given(batch=st.lists(readings, max_size=60), window=windows,
           prefix=prefixes)
    @settings(max_examples=60, deadline=None)
    def test_single_shard_range_matches_seed(self, batch, window, prefix):
        """N=1 is the seed: identical rows in identical order."""
        store, reference = _stores(1)
        for reading in batch:
            store.ingest("bpm", reading)
            reference.ingest(reading)
        t0, t1 = window
        assert store.range("bpm", t0, t1, prefix) == \
            reference.range(t0, t1, prefix)

    @given(batch=st.lists(readings, max_size=60), window=windows,
           prefix=prefixes, n_shards=st.sampled_from([2, 3, 16]))
    @settings(max_examples=60, deadline=None)
    def test_sharding_is_invisible_to_queries(self, batch, window, prefix,
                                              n_shards):
        """Any shard count returns the seed's exact ordering."""
        store, reference = _stores(n_shards)
        for reading in batch:
            store.ingest("bpm", reading)
            reference.ingest(reading)
        t0, t1 = window
        assert store.range("bpm", t0, t1, prefix) == \
            reference.range(t0, t1, prefix)

    @given(batch=st.lists(readings, max_size=60), prefix=prefixes,
           n_shards=st.sampled_from([1, 4]))
    @settings(max_examples=60, deadline=None)
    def test_latest_matches_seed(self, batch, prefix, n_shards):
        store, reference = _stores(n_shards)
        for reading in batch:
            store.ingest("bpm", reading)
            reference.ingest(reading)
        assert store.latest("bpm", prefix) == reference.latest(prefix)


#: Ingest steps: (table, timestamp delta from the running clock, field
#: present, value, location).  Zero deltas repeat a timestamp, negative
#: ones land late, and the clock starts below zero.  Few locations and
#: cancelling values make late records share windows whose float total
#: (or the sign of a zero minimum) depends on the summation order.
ingest_steps = st.tuples(
    st.sampled_from(["bpm", "bpm", "bpm", "coolant"]),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0),
              st.floats(min_value=-70.0, max_value=0.0)),
    st.sampled_from([True, True, True, False]),
    st.sampled_from([1e16, -1e16, 1.0, 2.5, 0.0, -0.0]),
    st.sampled_from(["R00-M0-N00", "R00-M0-N00", "R00-M1-N02",
                     "R01-M0-N00"]),
)
aggregate_steps = st.tuples(
    st.sampled_from([30.0, 60.0, 45.5]),
    st.sampled_from(["", "", "R00", "R00-M1", "R9"]),
    st.one_of(st.just((-1e3, 1e3)),
              st.tuples(st.floats(min_value=-250.0, max_value=400.0),
                        st.floats(min_value=-250.0, max_value=400.0)
                        ).map(sorted)),
)
cache_steps = st.one_of(  # ingests twice as likely as each other step
    st.tuples(st.just("ingest"), ingest_steps),
    st.tuples(st.just("ingest"), ingest_steps),
    st.tuples(st.just("query"), aggregate_steps),
    st.tuples(st.just("reshard"), st.sampled_from([1, 2, 4])),
)


def _ingest(delta, value, location="R00-M0-N00"):
    return ("ingest", ("bpm", delta, True, value, location))


_QUERY_ALL = ("query", (60.0, "", (-1e3, 1e3)))


class TestIncrementalAggregates:
    # Late records behind a folded window: summed in ingest order the
    # first would total 1.0, not 0.0; folded after the 0.0 the second
    # would keep a 0.0 minimum where a fresh build has -0.0.
    @example(steps=[_ingest(110.0, 1e16), _ingest(10.0, -1e16), _QUERY_ALL,
                    _ingest(-5.0, 1.0), _QUERY_ALL], n_shards=2)
    @example(steps=[_ingest(110.0, 0.0), _QUERY_ALL, _ingest(-5.0, -0.0),
                    _ingest(1.0, 2.5, "R01-M0-N00"), _QUERY_ALL], n_shards=1)
    @given(steps=st.lists(cache_steps, min_size=10, max_size=50),
           n_shards=st.sampled_from([1, 2, 4]))
    @settings(max_examples=200, deadline=None)
    def test_every_query_equals_a_fresh_build(self, steps, n_shards):
        """Interleaved ingests, queries and reshards: each aggregate is
        exactly (float bits included) what a fresh store fed the same
        records returns."""
        store = ShardedStore(TABLES, n_shards=n_shards)
        fed: list[tuple[str, Reading]] = []
        clock = -100.0
        for kind, step in steps:
            if kind == "ingest":
                table, delta, has_field, value, location = step
                t = clock + delta
                clock = max(clock, t)
                name = "input_power_w" if has_field else "other"
                reading = Reading(t, location, "envdb", {name: value})
                store.ingest(table, reading)
                fed.append((table, reading))
            elif kind == "reshard":
                store.reshard(step)
            else:
                window, prefix, (t0, t1) = step
                fresh = ShardedStore(TABLES, n_shards=store.n_shards)
                for table, reading in fed:
                    fresh.ingest(table, reading)
                got = store.aggregate("bpm", "input_power_w", t0, t1,
                                      window, prefix)
                want = fresh.aggregate("bpm", "input_power_w", t0, t1,
                                       window, prefix)
                assert got == want
                assert repr(got) == repr(want)  # -0.0 vs 0.0, too


def _batch(rack_counts: dict[str, int]) -> list[tuple[str, Reading]]:
    items = []
    for rack, count in rack_counts.items():
        for i in range(count):
            items.append(("bpm", Reading(
                float(i), f"{rack}-M0-N{i % 16:02d}", "envdb",
                {"input_power_w": 1.0},
            )))
    return items


class TestSaturationAccounting:
    @given(counts=st.lists(st.integers(0, 30), min_size=2, max_size=6),
           budget=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_drops_accounted_to_the_saturating_shard(self, counts, budget):
        """Each shard drops exactly its own overflow, independently."""
        store = ShardedStore(TABLES, n_shards=8,
                             capacity_records_per_s=float(budget))
        rack_counts = {f"R{i:02d}": count for i, count in enumerate(counts)}
        items = _batch(rack_counts)
        report = store.ingest_batch(Batch.of_readings(items), interval_s=1.0)

        expected_offered: dict[int, int] = {}
        for _, reading in items:
            index = store.shard_map.shard_of(reading.location)
            expected_offered[index] = expected_offered.get(index, 0) + 1
        expected_dropped = {index: offered - budget
                            for index, offered in expected_offered.items()
                            if offered > budget}

        assert report.offered_by_shard == expected_offered
        assert report.dropped_by_shard == expected_dropped
        assert store.dropped_by_shard == {
            index: expected_dropped.get(index, 0) for index in range(8)
        }
        assert report.offered == len(items)
        assert report.dropped == sum(expected_dropped.values())
        assert store.records_ingested == report.accepted

    def test_hot_shard_overflow_leaves_others_whole(self):
        """One saturating rack costs only its own shard's tail; the
        survivors are that shard's earliest-offered records."""
        store = ShardedStore(TABLES, n_shards=8, capacity_records_per_s=4.0)
        items = _batch({"R00": 10, "R01": 3})
        report = store.ingest_batch(Batch.of_readings(items), interval_s=1.0)
        hot = store.shard_map.shard_of("R00-M0-N00")
        cold = store.shard_map.shard_of("R01-M0-N00")
        assert hot != cold
        assert report.dropped_by_shard == {hot: 6}
        assert store.dropped_by_shard[cold] == 0
        kept = [r.location for r in store.range("bpm", 0.0, 100.0, "R00")]
        offered = [r.location for _, r in items[:4]]
        assert kept == offered  # the first four offered to the hot shard
        assert len(store.range("bpm", 0.0, 100.0, "R01")) == 3


#: Field schemas one table mixes: a shared field in two positions, a
#: disjoint one, and none at all.
SCHEMAS = (("input_power_w",), ("input_power_w", "output_power_w"),
           ("output_power_w", "input_power_w"), ("pkg_w",), ())
mixed_rows = st.tuples(
    st.sampled_from(["bpm", "bpm", "coolant"]),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0),
              st.floats(min_value=-70.0, max_value=0.0)),
    st.sampled_from(["envdb", "rapl-msr"]),
    st.sampled_from(SCHEMAS),
    st.lists(st.sampled_from([1.0, 2.5, 0.0, -0.0, 1e16, -1e16,
                              float("nan")]), min_size=2, max_size=2),
    st.sampled_from(["R00-M0-N00", "R00-M1-N02", "R01-M0-N00",
                     "R02-M0-N01", "R05-M1-N03"]),
)
mixed_steps = st.one_of(
    st.tuples(st.just("batch"), st.lists(mixed_rows, min_size=1,
                                         max_size=12)),
    st.tuples(st.just("ingest"), mixed_rows),
    st.tuples(st.just("reshard"), st.sampled_from([1, 2, 3, 4])),
    st.tuples(st.just("check"), st.just(None)),
)

#: Each shard's per-batch budget (capacity 3 records/s, 1 s batches).
BUDGET = 3


class TestMixedStreams:
    @given(steps=st.lists(mixed_steps, min_size=4, max_size=25),
           n_shards=st.sampled_from([1, 2, 4]))
    @settings(max_examples=120, deadline=None)
    def test_every_query_matches_the_flat_list(self, steps, n_shards):
        store = ShardedStore(TABLES, n_shards=n_shards,
                             capacity_records_per_s=float(BUDGET))
        reference = FlatListReference()
        clock = 0.0
        dropped = 0

        def reading(row):
            nonlocal clock
            table, delta, mechanism, fields, values, location = row
            clock = max(clock, clock + delta)
            t = clock + min(delta, 0.0)  # negative deltas land late
            return table, Reading(t, location, mechanism,
                                  dict(zip(fields, values)))

        for kind, step in steps + [("check", None)]:
            if kind == "batch":
                items = [reading(row) for row in step]
                report = store.ingest_batch(Batch.of_readings(items), 1.0)
                shard_map = ShardMap(store.n_shards)
                want = reference.ingest_batch(items, BUDGET,
                                              shard_map.shard_of)
                assert report.dropped_by_shard == want
                dropped += sum(want.values())
            elif kind == "ingest":
                table, row = reading(step)
                store.ingest(table, row)
                reference.ingest(row, table)
            elif kind == "reshard":
                store.reshard(step)
            else:
                _check_against(store, reference)
        assert store.dropped_records == dropped
        assert store.records_ingested == reference._seq
        assert store.ingest_cursor == reference._seq


def _check_against(store: ShardedStore, reference: FlatListReference):
    for table in TABLES:
        for prefix in ("", "R00", "R00-M1", "R05-M1-N03", "R9"):
            for t0, t1 in ((-math.inf, math.inf), (5.0, 30.0), (10.0, 10.0)):
                assert repr(store.range(table, t0, t1, prefix)) == \
                    repr(reference.range(t0, t1, prefix, table))
            assert repr(sorted(store.latest(table, prefix).items())) == \
                repr(sorted(reference.latest(prefix, table).items()))
            head = store.ingest_cursor
            for cursor in sorted({0, min(3, head), head // 2, head}):
                for limit in (None, 1, 4):
                    batch = store.tail(table, cursor, prefix, limit)
                    rows, next_cursor = reference.tail(
                        table, cursor, prefix, limit, store.shard_map)
                    assert repr(list(batch.readings)) == repr(rows)
                    assert batch.cursor == next_cursor
            for field in ("input_power_w", "pkg_w"):
                for window in (7.5, 60.0):
                    assert repr(store.aggregate(
                        table, field, -100.0, 200.0, window, prefix)) == \
                        repr(reference.aggregate(
                            table, field, -100.0, 200.0, window, prefix))
