"""The store wired into its consumers: envdb, clusters, MonEQ."""

import pytest

from repro.bgq.envdb import SERVER_CAPACITY_RECORDS_PER_S
from repro.bgq.machine import BgqMachine
from repro.core.capability import PlatformCapabilities
from repro.core.moneq.backend import Backend
from repro.core.moneq.config import MoneqConfig
from repro.errors import ConfigError
from repro.host.cluster import Cluster
from repro.sim.rng import RngRegistry
from repro.store import Reading


class TestEnvdbOnTheStore:
    def test_default_is_the_seed_single_server(self):
        machine = BgqMachine(racks=1, rng=RngRegistry(3))
        store = machine.envdb.store
        assert store.n_shards == 1
        assert store.capacity_records_per_s == SERVER_CAPACITY_RECORDS_PER_S

    def test_sharded_machine_queries_like_the_seed(self):
        plain = BgqMachine(racks=2, rng=RngRegistry(3))
        sharded = BgqMachine(racks=2, rng=RngRegistry(3), envdb_shards=4)
        horizon = plain.envdb.poll_interval_s * 3
        plain.advance_to(horizon)
        sharded.advance_to(horizon)
        assert sharded.envdb.store.n_shards == 4
        assert sharded.envdb.query("bpm", 0.0, horizon) == \
            plain.envdb.query("bpm", 0.0, horizon)
        assert sharded.envdb.range_readings("bpm", 0.0, horizon, "R01") == \
            plain.envdb.range_readings("bpm", 0.0, horizon, "R01")

    def test_aggregate_matches_raw_reduce(self):
        machine = BgqMachine(racks=1, rng=RngRegistry(9))
        interval = machine.envdb.poll_interval_s
        machine.advance_to(interval * 4)
        aggs = machine.envdb.aggregate("bpm", "input_power_w",
                                       0.0, interval * 4, interval * 8)
        readings = machine.envdb.range_readings("bpm", 0.0, interval * 4)
        by_location = {}
        for reading in readings:
            by_location.setdefault(reading.location, []).append(
                reading.value("input_power_w"))
        assert {a.location for a in aggs} == set(by_location)
        for agg in aggs:
            values = by_location[agg.location]
            assert agg.count == len(values)
            assert agg.minimum == min(values)
            assert agg.maximum == max(values)
            assert agg.mean == pytest.approx(sum(values) / len(values))

    def test_dropped_records_surface_through_the_envdb(self):
        machine = BgqMachine(racks=48, rng=RngRegistry(5),
                             poll_interval_s=60.0)
        machine.advance_to(60.0)
        assert machine.envdb.capacity_fraction() > 1.0
        per_sweep = machine.envdb.sensors_per_poll - \
            int(60.0 * SERVER_CAPACITY_RECORDS_PER_S)
        assert machine.envdb.dropped_records == per_sweep


class TestClusterStore:
    def test_attach_and_record(self):
        cluster = Cluster("stampede", rng=RngRegistry(1))
        store = cluster.attach_store(n_shards=4)
        assert cluster.store is store
        readings = [Reading(1.0, f"stampede-{i:04d}", "rapl-msr",
                            {"pkg_w": float(i)}) for i in range(6)]
        report = cluster.record_readings("readings", readings, interval_s=1.0)
        assert report.accepted == 6
        assert store.latest("readings", "stampede-0003")[
            "stampede-0003"].value("pkg_w") == 3.0
        rows = store.range("readings", 0.0, 2.0, "stampede-0003")
        assert [r.location for r in rows] == ["stampede-0003"]

    def test_attach_twice_and_unattached_access_fail(self):
        cluster = Cluster("c", rng=RngRegistry(1))
        with pytest.raises(ConfigError, match="has no store"):
            cluster.store
        cluster.attach_store()
        with pytest.raises(ConfigError, match="already has a store"):
            cluster.attach_store()


class _FakeBackend(Backend):
    platform = "Fake"
    mechanism = "fake"

    def __init__(self, label, minimum):
        self.label = label
        self._minimum = minimum

    @property
    def min_interval_s(self):
        return self._minimum

    @property
    def query_latency_s(self):
        return 0.001

    def fields(self):
        return ["pkg_w"]

    def read_at(self, t):
        return {"pkg_w": 7.5}

    def capabilities(self):
        return PlatformCapabilities(platform=self.platform,
                                    available=frozenset())


class TestIntervalValidation:
    def test_default_resolves_to_the_slowest_minimum(self):
        backends = [_FakeBackend("a", 0.016), _FakeBackend("b", 0.560)]
        assert MoneqConfig().resolve_interval(backends) == 0.560

    def test_too_fast_interval_names_the_offending_backend(self):
        backends = [_FakeBackend("a", 0.016), _FakeBackend("slowcard", 0.560)]
        config = MoneqConfig(polling_interval_s=0.100)
        with pytest.raises(ConfigError, match=r"'slowcard'.*Fake.*'fake'"):
            config.resolve_interval(backends)

    def test_explicit_interval_at_or_above_floor_passes(self):
        backends = [_FakeBackend("a", 0.560)]
        config = MoneqConfig(polling_interval_s=0.560)
        assert config.resolve_interval(backends) == 0.560

    def test_zero_backends_rejected(self):
        with pytest.raises(ConfigError, match="zero backends"):
            MoneqConfig().resolve_interval([])

