"""Property: the columnar aggregate cache folds exactly as the tuple fold.

Two fleets see the same interleaving of ingests (one record or a
batch), reshards and reads: one over :class:`ShardedStore`, whose
shards keep each keying as numpy columns, the other over
:class:`~tests.store.tuple_oracle.OracleStore`, whose shards fold one
Python float at a time.  Every read — a site's ``aggregate`` and
``partials``, the federated per-location aggregate and the fleet
rollup — must have the same ``repr`` on both (so NaN extremes, ``-0.0``
totals and tied ``0.0``/``-0.0`` extremes compare exactly), and must
move the cache's hit, miss and invalidation counters by the same
amounts.  The streams repeat and back-date timestamps, mix NaN, ±inf
and signed zeros, and leave the field out of some rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.instruments import (
    STORE_CACHE_HITS,
    STORE_CACHE_INVALIDATIONS,
    STORE_CACHE_MISSES,
)
from repro.store import Batch, FederatedStore, Reading, ShardedStore

from tests.store.tuple_oracle import OracleStore

SITES = ("east", "west")
COUNTERS = (STORE_CACHE_HITS, STORE_CACHE_MISSES, STORE_CACHE_INVALIDATIONS)

#: (timestamp delta from the running clock, field schema, values,
#: location).  Zero deltas repeat a timestamp, negative ones land late.
rows = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=40.0),
              st.floats(min_value=-90.0, max_value=0.0)),
    st.sampled_from([("p",), ("p",), ("q", "p"), ("q",)]),
    st.lists(st.sampled_from([float("nan"), float("inf"), float("-inf"),
                              0.0, -0.0, 0.0, -0.0, 1.0, -2.5, 1e16,
                              -1e16]), min_size=2, max_size=2),
    st.sampled_from(["R00-M0-N00", "R00-M0-N00", "R00-M1-N02",
                     "R01-M0-N00", "R03-M1-N01"]),
)
reads = st.tuples(
    st.sampled_from([60.0, 60.0, 7.5, 45.5, 60])
    | st.integers(1, 40).map(float),
    st.sampled_from(["p", "p", "p", "q"]),
    st.sampled_from(["", "", "R00", "R00-M1", "R9"]),
    st.sampled_from([(-1e3, 1e3), (-1e3, 1e3), (0.0, 60.0), (30.0, 30.0),
                     (-50.0, 200.0)]),
)
steps = st.one_of(
    st.tuples(st.just("ingest"), st.sampled_from(SITES), rows),
    st.tuples(st.just("batch"), st.sampled_from(SITES),
              st.lists(rows, min_size=1, max_size=8)),
    st.tuples(st.just("read"), st.just(None), reads),
    st.tuples(st.just("reshard"), st.sampled_from(SITES),
              st.sampled_from([1, 2, 4])),
)


def _counted(read):
    """``repr`` of ``read()`` and the cache counters it moved."""
    before = [counter.value() for counter in COUNTERS]
    out = repr(read())
    return out, [counter.value() - b for counter, b in zip(COUNTERS, before)]


@given(steps=st.lists(steps, min_size=5, max_size=40),
       n_shards=st.sampled_from([1, 2, 4]))
@settings(max_examples=150, deadline=None)
def test_columnar_cache_folds_as_the_tuple_oracle(steps, n_shards):
    fleets = [FederatedStore({name: kind(("bpm",), n_shards=n_shards)
                              for name in SITES})
              for kind in (ShardedStore, OracleStore)]
    clock = 0.0

    def reading(row):
        nonlocal clock
        delta, fields, values, location = row
        clock = max(clock, clock + delta)
        return Reading(clock + min(delta, 0.0), location, "envdb",
                       dict(zip(fields, values)))

    for kind, site, step in steps + [("read", None, (60.0, "p", "",
                                                     (-1e3, 1e3)))]:
        if kind == "ingest":
            row = reading(step)
            for fleet in fleets:
                fleet.sites[site].ingest("bpm", row)
        elif kind == "batch":
            batch = Batch.of_readings([("bpm", reading(r)) for r in step])
            for fleet in fleets:
                fleet.sites[site].ingest_batch(batch, 60.0)
        elif kind == "reshard":
            for fleet in fleets:
                fleet.sites[site].reshard(step)
        else:
            window, field, prefix, (t0, t1) = step
            for name in SITES:
                for read in ("aggregate", "partials"):
                    got, want = (_counted(lambda f=fleet: getattr(
                        f.sites[name], read)("bpm", field, t0, t1, window,
                                             prefix)) for fleet in fleets)
                    assert got == want, (name, read)
            for routed in ("", "east", f"west/{prefix}"):
                for rollup in (True, False):
                    got, want = (_counted(lambda f=fleet: f.aggregate(
                        "bpm", field, t0, t1, window, routed, rollup))
                        for fleet in fleets)
                    assert got == want, (routed, rollup)
