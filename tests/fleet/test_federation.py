"""The federated store: routing, relabeling, central merges, resharding.

The federation's contract is that it is *pure routing plus a
deterministic merge*: every query over ``site/location`` prefixes
returns exactly what the underlying site stores hold, relabeled;
rollup aggregates fold site partials without touching a single raw
record; and resharding a saturated site never changes any query's
result bytes.
"""

import numpy as np
import pytest

from repro.bgq.machine import BgqMachine
from repro.errors import ConfigError
from repro.fleet import Fleet, FleetSite, build_fleet
from repro.sim.rng import RngRegistry
from repro.store import FederatedStore, ShardedStore, merge_partials
from repro.store.aggregate import Aggregate


def _fleet(n_sites=2, racks=1, shards=1, horizon=250.0):
    fleet = build_fleet(n_sites=n_sites, racks=racks, seed=0xFED,
                        poll_interval_s=60.0, shards_per_site=shards)
    fleet.advance_to(horizon)
    return fleet


# -- construction and routing ------------------------------------------------


def test_site_names_must_be_separator_free_and_schema_shared():
    good = ShardedStore(("bpm",))
    with pytest.raises(ConfigError):
        FederatedStore({})
    with pytest.raises(ConfigError):
        FederatedStore({"a/b": good})
    with pytest.raises(ConfigError):
        FederatedStore({"": good})
    with pytest.raises(ConfigError):
        FederatedStore({"a": good, "b": ShardedStore(("bpm", "fan"))})


def test_routing_prefix_conventions():
    fed = _fleet().federation
    assert [s for s, _ in fed._route("")] == ["site00", "site01"]
    assert fed._route("site01/R00") == [("site01", "R00")]
    assert fed._route("site0") == [("site00", ""), ("site01", "")]
    with pytest.raises(ConfigError):
        fed._route("nosite/R00")
    with pytest.raises(ConfigError):
        fed._route("zz")


def test_nan_range_bound_rejected_naming_it():
    fed = _fleet().federation
    with pytest.raises(ConfigError, match="query bound t0 is NaN"):
        fed.range("bpm", float("nan"), 100.0)
    with pytest.raises(ConfigError, match="query bound t1 is NaN"):
        fed.range("bpm", 0.0, float("nan"), "site01/R00")
    assert fed.range("bpm", float("-inf"), float("inf"), "site01/R00")


def test_fleet_rejects_duplicate_or_empty_sites():
    with pytest.raises(ConfigError):
        Fleet([])
    machine = BgqMachine(racks=1, rng=RngRegistry(1), poll_interval_s=60.0)
    other = BgqMachine(racks=1, rng=RngRegistry(2), poll_interval_s=60.0)
    with pytest.raises(ConfigError):
        Fleet([FleetSite("a", machine), FleetSite("a", other)])
    with pytest.raises(ConfigError):
        build_fleet(n_sites=0)


# -- queries -----------------------------------------------------------------


def test_range_relabels_and_merges_by_timestamp():
    fleet = _fleet()
    fed = fleet.federation
    rows = fed.range("bpm", 0.0, 300.0)
    assert rows, "sweeps landed no records"
    times = [r.timestamp for r in rows]
    assert times == sorted(times)
    assert all(r.location.partition("/")[0] in ("site00", "site01")
               for r in rows)
    # Exactly the union of the per-site rows, relabeled.
    per_site = sum(len(fleet.site(name).store.range("bpm", 0.0, 300.0))
                   for name in fed.site_names)
    assert len(rows) == per_site
    # A pinned prefix returns the site's own rows one for one.
    pinned = fed.range("bpm", 0.0, 300.0, "site01/R00")
    local = fleet.site("site01").store.range("bpm", 0.0, 300.0, "R00")
    assert [(r.timestamp, r.location.partition("/")[2], r.values)
            for r in pinned] == \
        [(r.timestamp, r.location, r.values) for r in local]


def test_latest_keys_are_site_prefixed():
    fleet = _fleet()
    latest = fleet.federation.latest("bpm")
    assert latest
    for key, reading in latest.items():
        assert key == reading.location
        site, sep, local = key.partition("/")
        assert sep and site in ("site00", "site01") and local


def test_rollup_aggregate_matches_flat_oracle():
    """The fleet-wide rollup must equal recomputing each window from
    every raw record across every site — counts, extremes and means."""
    fleet = _fleet(horizon=250.0)
    fed = fleet.federation
    window_s = 60.0
    rollup = fed.aggregate("bpm", "input_power_w", 0.0, 250.0, window_s,
                           rollup=True)
    assert rollup and all(a.location == "fleet" for a in rollup)
    rows = fed.range("bpm", 0.0, 250.0)
    by_window: dict[float, list[float]] = {}
    for r in rows:
        start = (r.timestamp // window_s) * window_s
        by_window.setdefault(start, []).append(r.values["input_power_w"])
    assert len(rollup) == len(by_window)
    for agg in rollup:
        values = by_window[agg.window_start]
        assert agg.count == len(values)
        assert agg.minimum == min(values)
        assert agg.maximum == max(values)
        assert agg.mean == pytest.approx(sum(values) / len(values))


def test_flat_aggregate_keeps_per_location_partials():
    fed = _fleet().federation
    flat = fed.aggregate("bpm", "input_power_w", 0.0, 250.0, 60.0)
    assert flat
    assert all("/" in a.location for a in flat)
    assert [(a.window_start, a.location) for a in flat] == \
        sorted((a.window_start, a.location) for a in flat)


def test_merge_partials_folds_counts_and_extremes():
    partials = [
        Aggregate("a", "w", 0.0, 60.0, count=2, minimum=1.0, maximum=5.0,
                  total=6.0),
        Aggregate("b", "w", 0.0, 60.0, count=3, minimum=0.5, maximum=4.0,
                  total=9.0),
        Aggregate("a", "w", 60.0, 60.0, count=1, minimum=2.0, maximum=2.0,
                  total=2.0),
    ]
    merged = merge_partials(partials, location="fleet")
    assert [(a.window_start, a.count, a.minimum, a.maximum, a.total)
            for a in merged] == [(0.0, 5, 0.5, 5.0, 15.0),
                                 (60.0, 1, 2.0, 2.0, 2.0)]
    assert all(a.location == "fleet" for a in merged)
    # Without a rollup location the per-location identity is kept.
    kept = merge_partials(partials)
    assert [a.location for a in kept] == ["a", "b", "a"]


# -- resharding --------------------------------------------------------------


def test_reshard_preserves_query_bytes_and_accounting():
    fleet = _fleet(n_sites=1, horizon=250.0)
    store = fleet.site("site00").store
    before_rows = store.range("bpm", 0.0, 300.0)
    before_latest = store.latest("bpm")
    before_aggs = store.aggregate("bpm", "input_power_w", 0.0, 300.0, 60.0)
    records = store.records_ingested

    store.reshard(4)
    assert store.n_shards == 4
    assert store.records_ingested == records
    after_rows = store.range("bpm", 0.0, 300.0)
    assert [(r.timestamp, r.location, r.mechanism, r.values)
            for r in after_rows] == \
        [(r.timestamp, r.location, r.mechanism, r.values)
         for r in before_rows]
    assert store.latest("bpm") == before_latest
    assert store.aggregate("bpm", "input_power_w", 0.0, 300.0, 60.0) == \
        before_aggs


def test_reshard_carries_dropped_counts():
    fleet = build_fleet(n_sites=1, racks=48, seed=0xD0F, poll_interval_s=60.0)
    fleet.advance_to(65.0)  # one full-Mira sweep saturates one shard
    store = fleet.site("site00").store
    dropped = store.dropped_records
    assert dropped > 0
    store.reshard(8)
    assert store.dropped_records == dropped


def test_rebalance_reshards_saturated_site_once():
    fleet = build_fleet(n_sites=1, racks=48, seed=0xAB, poll_interval_s=60.0)
    site = fleet.site("site00")
    assert site.envdb.capacity_fraction() > 1.0
    resharded = fleet.rebalance_saturated()
    n = resharded["site00"]
    assert n >= 2 and (n & (n - 1)) == 0  # a power of two
    assert site.store.n_shards == n
    assert site.envdb.capacity_fraction() <= 0.9
    # Already balanced: a second pass is a no-op.
    assert fleet.rebalance_saturated() == {}
    # And the post-reshard sweep drops nothing.
    fleet.advance_to(65.0)
    assert fleet.dropped_records == 0


def test_rebalance_skips_unsaturated_sites():
    fleet = _fleet()
    assert fleet.rebalance_saturated() == {}
    assert {name: site.store.n_shards
            for name, site in fleet.sites.items()} == \
        {"site00": 1, "site01": 1}


def test_federation_accounting_sums_sites():
    fleet = _fleet()
    fed = fleet.federation
    assert fed.records_ingested == sum(
        fleet.site(n).store.records_ingested for n in fed.site_names)
    assert fleet.records_ingested == fed.records_ingested
    assert fleet.node_count == sum(
        s.machine.node_count for s in fleet.sites.values())


def test_equal_seeds_build_identical_fleets():
    a = _fleet(horizon=130.0)
    b = _fleet(horizon=130.0)
    ra = a.federation.range("bpm", 0.0, 130.0)
    rb = b.federation.range("bpm", 0.0, 130.0)
    assert [(r.timestamp, r.location, r.values) for r in ra] == \
        [(r.timestamp, r.location, r.values) for r in rb]
    assert np.isfinite([r.values["input_power_w"] for r in ra]).all()
