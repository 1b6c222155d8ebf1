"""Property: the fleet rollup folds the sites' cached partials exactly
as :func:`~repro.store.merge_partials` folds their ``Aggregate``s.

``FederatedStore.aggregate(..., rollup=True)`` folds each routed site's
``(window_start, location, count, min, max, total)`` partials straight
from the aggregate cache, in (site, window_start, location) order.  The
oracle asks every routed site for its ``ShardedStore.aggregate``
windows, relabels them ``site/location`` and merges them with
``merge_partials(..., location="fleet")``.  Both must agree by
``repr``, so NaN minima and maxima (first or later in the fold) and
``-0.0`` totals compare exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    Aggregate,
    Batch,
    FederatedStore,
    Reading,
    ShardedStore,
    merge_partials,
)

SITES = ("east", "eden", "west")

VALUES = st.sampled_from([float("nan"), -0.0, 0.0, 1.5, -2.0, 1e16]) \
    | st.floats(allow_nan=True, allow_infinity=False)
records = st.tuples(
    st.sampled_from(SITES),
    st.floats(min_value=-50.0, max_value=400.0),
    st.builds(lambda r, n: f"R{r:02d}-M0-N{n:02d}",
              st.integers(0, 3), st.integers(0, 2)),
    VALUES,
)


def _fleet(n_shards, rows) -> FederatedStore:
    sites = {name: ShardedStore(("bpm",), n_shards=n_shards)
             for name in SITES}
    for name in SITES:
        mine = [("bpm", Reading(t, loc, "envdb", {"p": v}))
                for site, t, loc, v in rows if site == name]
        sites[name].ingest_batch(Batch.of_readings(mine), 60.0)
    return FederatedStore(sites)


def _routed(prefix: str) -> list[tuple[str, str]]:
    head, sep, rest = prefix.partition("/")
    if sep:
        return [(head, rest)]
    return [(name, "") for name in sorted(SITES) if name.startswith(head)]


def _oracle(fleet, t0, t1, window_s, prefix) -> list[Aggregate]:
    partials = [
        Aggregate(location=f"{name}/{a.location}", field=a.field,
                  window_start=a.window_start, window_s=a.window_s,
                  count=a.count, minimum=a.minimum, maximum=a.maximum,
                  total=a.total)
        for name, local in _routed(prefix)
        for a in fleet.sites[name].aggregate("bpm", "p", t0, t1, window_s,
                                             local)
    ]
    return merge_partials(partials, location="fleet")


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(records, min_size=1, max_size=40),
       n_shards=st.integers(1, 3),
       window_s=st.sampled_from([15.0, 60.0, 137.5, 1000.0]),
       span=st.tuples(st.floats(-100.0, 450.0), st.floats(-100.0, 450.0)),
       prefix=st.sampled_from(["", "e", "ea", "west", "east/R01",
                               "eden/R00-M0", "west/R03-M0-N02"]),
       repeat=st.booleans())
def test_rollup_is_merge_partials_of_the_sites_aggregates(
        rows, n_shards, window_s, span, prefix, repeat):
    t0, t1 = min(span), max(span)
    fleet = _fleet(n_shards, rows)
    if repeat:  # warm the caches first: the rollup folds cached windows
        fleet.aggregate("bpm", "p", t0, t1, window_s, prefix, rollup=True)
    got = fleet.aggregate("bpm", "p", t0, t1, window_s, prefix, rollup=True)
    assert repr(got) == repr(_oracle(fleet, t0, t1, window_s, prefix))
    kept = fleet.aggregate("bpm", "p", t0, t1, window_s, prefix)
    assert repr(kept) == repr(sorted(
        (a for name, local in _routed(prefix)
         for a in (Aggregate(f"{name}/{b.location}", b.field,
                             b.window_start, b.window_s, b.count, b.minimum,
                             b.maximum, b.total)
                   for b in fleet.sites[name].aggregate(
                       "bpm", "p", t0, t1, window_s, local))),
        key=lambda a: (a.window_start, a.location)))


def test_nan_first_and_later_and_negative_zero_totals():
    """The fold's edge cases, pinned: a NaN first in the fold is the
    window's min and max; a NaN later is skipped; ``-0.0`` totals stay
    ``-0.0``."""
    nan = float("nan")
    rows = [
        ("east", 10.0, "R00-M0-N00", nan),    # first partial: NaN
        ("east", 11.0, "R01-M0-N00", 3.0),
        ("west", 12.0, "R00-M0-N00", 1.0),
        ("east", 70.0, "R00-M0-N00", 2.0),    # second window
        ("west", 71.0, "R01-M0-N00", nan),    # a NaN later in the fold
        ("eden", 130.0, "R00-M0-N00", -0.0),  # third window: -0.0 total
        ("west", 131.0, "R00-M0-N00", -0.0),
        ("east", 190.0, "R00-M0-N00", 0.0),   # fourth: 0.0 ties -0.0
        ("west", 191.0, "R00-M0-N00", -0.0),
        ("west", -50.0, "R02-M0-N00", 4.0),   # only the last site: first
    ]
    fleet = _fleet(2, rows)
    got = fleet.aggregate("bpm", "p", -60.0, 239.0, 60.0, rollup=True)
    assert repr(got) == repr(_oracle(fleet, -60.0, 239.0, 60.0, ""))
    assert [a.window_start for a in got] == [-60.0, 0.0, 60.0, 120.0, 180.0]
    _, first, second, third, fourth = got
    assert math.isnan(first.minimum) and math.isnan(first.maximum)
    assert (second.minimum, second.maximum, second.count) == (2.0, 2.0, 2)
    assert math.copysign(1.0, third.total) == -1.0
    # ``<`` keeps the first of equal extremes: 0.0 from east, not -0.0.
    assert math.copysign(1.0, fourth.minimum) == 1.0
    one_site = fleet.aggregate("bpm", "p", 0.0, 179.0, 60.0, "west/R01",
                               rollup=True)
    assert repr(one_site) == repr(_oracle(fleet, 0.0, 179.0, 60.0,
                                          "west/R01"))
