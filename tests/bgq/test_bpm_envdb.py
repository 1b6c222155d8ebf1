"""Unit tests for BPM metering and the environmental database."""

import pytest

from repro.bgq.bpm import BulkPowerModule
from repro.bgq.envdb import (
    DEFAULT_POLL_INTERVAL_S,
    MAX_POLL_INTERVAL_S,
    MIN_POLL_INTERVAL_S,
    EnvironmentalDatabase,
)
from repro.bgq.machine import BgqMachine
from repro.bgq.topology import NodeBoard
from repro.errors import ConfigError
from repro.sim.events import EventQueue
from repro.sim.hashrand import hash_normal
from repro.sim.rng import RngRegistry
from repro.workloads.mmps import MmpsWorkload


@pytest.fixture
def board():
    return NodeBoard("R00-M0-N00", RngRegistry(3))


class TestBpm:
    def test_input_exceeds_output(self, board):
        bpm = BulkPowerModule(board)
        assert float(bpm.input_power_w(10.0)) > float(bpm.output_power_w(10.0))

    def test_efficiency_relation(self, board):
        bpm = BulkPowerModule(board, efficiency=0.90)
        out = float(bpm.output_power_w(5.0))
        assert float(bpm.input_power_w(5.0)) == pytest.approx(out / 0.9 + 12.0)

    def test_metered_fields(self, board):
        metered = BulkPowerModule(board).metered(10.0)
        assert set(metered) == {"input_power_w", "input_current_a",
                                "output_power_w", "output_current_a"}
        assert metered["input_current_a"] == pytest.approx(
            metered["input_power_w"] / 208.0
        )
        assert metered["output_current_a"] == pytest.approx(
            metered["output_power_w"] / 48.0
        )

    @pytest.mark.parametrize("seed, efficiency", [
        (0, 0.90), (3, 0.85), (77, 0.97), (0x5E55, 1.0),
    ])
    def test_metered_equals_two_evaluation_formula_bitwise(self, seed,
                                                           efficiency):
        """One board evaluation per scan gives the same bits as reading
        input and output power through their own truth methods."""
        bpm = BulkPowerModule(NodeBoard("R01-M1-N07", RngRegistry(seed)),
                              efficiency=efficiency, seed=seed)
        for t in [0.0, 0.001, 0.5, 1.0, 7.25, 59.999, 60.0, 600.0,
                  3601.125, 86400.0]:
            idx = int(round(t * 1000.0))
            input_w = float(bpm.input_power_w(t)) + float(
                hash_normal(seed, idx)) * bpm.meter_noise_w
            output_w = float(bpm.output_power_w(t)) + float(
                hash_normal(seed ^ 0xBEEF, idx)) * bpm.meter_noise_w
            expected = {
                "input_power_w": input_w,
                "input_current_a": input_w / 208.0,
                "output_power_w": output_w,
                "output_current_a": output_w / 48.0,
            }
            got = bpm.metered(t)
            assert {k: v.hex() for k, v in got.items()} == \
                {k: v.hex() for k, v in expected.items()}

    def test_metering_deterministic(self, board):
        bpm = BulkPowerModule(board, seed=77)
        assert bpm.metered(30.0) == bpm.metered(30.0)

    def test_validation(self, board):
        with pytest.raises(ConfigError):
            BulkPowerModule(board, efficiency=0.4)
        with pytest.raises(ConfigError):
            BulkPowerModule(board, meter_noise_w=-1.0)


class TestEnvDbConfig:
    def test_interval_range_enforced(self, queue):
        with pytest.raises(ConfigError):
            EnvironmentalDatabase(queue, poll_interval_s=MIN_POLL_INTERVAL_S - 1)
        with pytest.raises(ConfigError):
            EnvironmentalDatabase(queue, poll_interval_s=MAX_POLL_INTERVAL_S + 1)

    def test_default_is_about_4_minutes(self):
        assert DEFAULT_POLL_INTERVAL_S == 240.0

    def test_double_start_rejected(self, queue):
        db = EnvironmentalDatabase(queue)
        db.start()
        with pytest.raises(ConfigError):
            db.start()


class TestEnvDbPollingAndQueries:
    @pytest.fixture
    def machine(self):
        m = BgqMachine(racks=1, rng=RngRegistry(13), poll_interval_s=240.0)
        m.run_job(MmpsWorkload(duration=1500.0), node_count=32, t_start=600.0)
        return m

    def test_poll_count_matches_interval(self, machine):
        machine.advance_to(2400.0)
        assert machine.envdb.polls_completed == 10

    def test_bpm_rows_timestamped_and_located(self, machine):
        machine.advance_to(1000.0)
        rows = machine.envdb.query("bpm", 0.0, 1000.0, "R00-M0-N00")
        assert len(rows) == 4
        assert all(r.location == "R00-M0-N00-BPM" for r in rows)
        assert [r.timestamp for r in rows] == [240.0, 480.0, 720.0, 960.0]

    def test_idle_visible_before_and_after_job(self, machine):
        """Figure 1's signature: the env DB sees the idle shelf."""
        machine.advance_to(3000.0)
        times, watts = machine.envdb.bpm_input_power_series("R00-M0-N00", 0.0, 3000.0)
        in_job = [w for t, w in zip(times, watts) if 700.0 < t < 2000.0]
        outside = [w for t, w in zip(times, watts) if t < 500.0 or t > 2400.0]
        assert min(in_job) > max(outside) + 400.0  # clear step

    def test_location_prefix_filters(self, machine):
        machine.advance_to(500.0)
        all_rows = machine.envdb.query("bpm", 0.0, 500.0)
        one_board = machine.envdb.query("bpm", 0.0, 500.0, "R00-M0-N00")
        # One rack = 2 midplanes x 16 node boards = 32 BPMs.
        assert len(all_rows) == 32 * len(one_board)

    def test_ambient_tables_populated(self, machine):
        machine.advance_to(300.0)
        for table in ("coolant", "temperature", "fan"):
            rows = machine.envdb.query(table, 0.0, 300.0)
            assert rows, f"no rows in {table}"

    def test_coolant_outlet_warms_with_load(self, machine):
        machine.advance_to(3000.0)
        rows = machine.envdb.query("coolant", 0.0, 3000.0, "R00-M0-N00")
        in_job = [r.values["outlet_c"] for r in rows if 700.0 < r.timestamp < 2000.0]
        idle = [r.values["outlet_c"] for r in rows if r.timestamp < 500.0]
        assert min(in_job) > max(idle)

    def test_unknown_table_rejected(self, machine):
        with pytest.raises(ConfigError):
            machine.envdb.query("gpu", 0.0, 1.0)

    def test_inverted_window_rejected(self, machine):
        with pytest.raises(ConfigError):
            machine.envdb.query("bpm", 10.0, 0.0)


class TestCapacityModel:
    def test_faster_polling_costs_proportionally(self, queue):
        db = EnvironmentalDatabase(queue)
        board = NodeBoard("R00-M0-N00", RngRegistry(1))
        db.register_bpm(BulkPowerModule(board))
        assert db.ingest_rate(60.0) == pytest.approx(4.0 * db.ingest_rate(240.0))

    def test_mira_scale_saturates_at_min_interval(self):
        """At 60 s polling, a full Mira's sensor population exceeds the
        server ceiling — the paper's rationale for ~4 minute polls."""
        machine = BgqMachine(racks=48, rng=RngRegistry(2), start_poller=False)
        assert machine.envdb.capacity_fraction(60.0) > 1.0
        assert machine.envdb.capacity_fraction(240.0) <= 1.0

    def test_shortest_sustainable_interval_clamped(self, queue):
        db = EnvironmentalDatabase(queue)  # no sensors registered
        assert db.shortest_sustainable_interval() == MIN_POLL_INTERVAL_S
