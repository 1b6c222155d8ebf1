"""Shard routing and query planning."""

import pytest

from repro.errors import ConfigError
from repro.store import (
    QUERY_KINDS,
    Reading,
    ShardedStore,
    ShardMap,
    plan_query,
    shard_key,
)


class TestShardKey:
    def test_default_depth_is_the_rack(self):
        assert shard_key("R07-M1-N03-BPM") == "R07"

    def test_depth_two_is_rack_midplane(self):
        assert shard_key("R07-M1-N03-BPM", depth=2) == "R07-M1"

    def test_short_locations_use_what_exists(self):
        assert shard_key("mic0", depth=2) == "mic0"


class TestShardMap:
    def test_validation(self):
        with pytest.raises(ConfigError, match="shard count"):
            ShardMap(0)
        with pytest.raises(ConfigError, match="depth"):
            ShardMap(4, depth=0)

    def test_single_shard_always_routes_to_zero(self):
        shard_map = ShardMap(1)
        assert shard_map.shard_of("R00-M0-N00") == 0
        assert shard_map.shards_for_prefix("") == [0]

    def test_routing_is_deterministic_and_rack_sticky(self):
        shard_map = ShardMap(8)
        a = shard_map.shard_of("R05-M0-N00-BPM")
        assert a == shard_map.shard_of("R05-M1-N31")  # same rack
        assert a == ShardMap(8).shard_of("R05-M0-N00-BPM")  # rebuildable
        assert 0 <= a < 8

    def test_racks_spread_across_shards(self):
        shard_map = ShardMap(8)
        used = {shard_map.shard_of(f"R{i:02d}-M0-N00") for i in range(48)}
        assert len(used) > 1

    def test_prefix_pinning(self):
        shard_map = ShardMap(8)
        # A complete rack component (separator follows) pins one shard.
        assert shard_map.shards_for_prefix("R05-M0") == \
            [shard_map.shard_of("R05-M0-N00")]
        # A bare or partial first component must fan out: "R0" also
        # matches R00..R09, and "R05" might be a prefix of nothing else
        # but the map cannot know the location grammar.
        assert shard_map.shards_for_prefix("R0") == list(range(8))
        assert shard_map.shards_for_prefix("R05") == list(range(8))
        assert shard_map.shards_for_prefix("") == list(range(8))


    @pytest.mark.parametrize("location", ["R\ud800-x", "\udfff",
                                          "R01-\ud800", "R\u00e9-M0"])
    def test_every_shard_count_accepts_what_one_shard_does(self, location):
        """A location's code points, lone surrogates included, route on
        any shard count: the 1- and 4-shard stores hold the same row."""
        reading = Reading(1.0, location, "bpm", {"w": 2.0})
        held = []
        for n_shards in (1, 4):
            store = ShardedStore(("t",), n_shards=n_shards)
            store.ingest("t", reading)
            held.append(store.range("t", 0.0, 2.0))
            assert store.range("t", 0.0, 2.0, location) == [reading]
        assert held[0] == held[1] == [reading]
        assert ShardMap(4).shard_of(location) == ShardMap(4).shard_of(location)


class TestPlanner:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown query kind"):
            plan_query("scan", "bpm", ShardMap(4))

    def test_only_aggregate_uses_the_cache(self):
        shard_map = ShardMap(4)
        by_kind = {kind: plan_query(kind, "bpm", shard_map)
                   for kind in QUERY_KINDS}
        assert [k for k, p in by_kind.items() if p.uses_cache] == ["aggregate"]

    def test_fan_out_reflects_prefix(self):
        shard_map = ShardMap(4)
        assert plan_query("range", "bpm", shard_map).fan_out == 4
        assert plan_query("range", "bpm", shard_map, "R00-M0").fan_out == 1
