"""Unit tests for the EMON interface and the assembled machine."""

import pytest

from repro.bgq.domains import BgqDomain
from repro.bgq.emon import (
    EMON_QUERY_LATENCY_S,
    GENERATION_PERIOD_S,
    EmonInterface,
)
from repro.bgq.machine import BgqMachine
from repro.errors import ConfigError
from repro.sim.rng import RngRegistry
from repro.workloads.mmps import MmpsWorkload


@pytest.fixture
def machine():
    return BgqMachine(racks=1, rng=RngRegistry(17))


class TestEmon:
    def test_collection_covers_all_domains(self, machine):
        machine.clock.advance(10.0)
        emon = machine.emon("R00-M0-N00")
        readings = emon.collect()
        assert {r.domain for r in readings} == set(BgqDomain)

    def test_collection_charges_1_10ms(self, machine):
        emon = machine.emon("R00-M0-N00")
        machine.clock.advance(5.0)
        t0 = machine.clock.now
        emon.collect()
        assert machine.clock.now - t0 == pytest.approx(EMON_QUERY_LATENCY_S)

    def test_collection_charges_process(self, machine):
        from repro.host.process import ProcessTable

        proc = ProcessTable().spawn("moneq-agent")
        machine.clock.advance(5.0)
        machine.emon("R00-M0-N00").collect(process=proc)
        assert proc.cpu_seconds == pytest.approx(EMON_QUERY_LATENCY_S)

    def test_readings_are_stale_by_one_generation(self, machine):
        machine.clock.advance(10.0)
        readings = machine.emon("R00-M0-N00").collect()
        for r in readings:
            age = machine.clock.now - r.sample_time
            assert age >= GENERATION_PERIOD_S - 1e-9

    def test_domains_sampled_at_different_instants(self, machine):
        machine.clock.advance(10.0)
        readings = machine.emon("R00-M0-N00").collect()
        times = {r.sample_time for r in readings}
        assert len(times) > 1  # the paper's cross-domain inconsistency

    def test_node_card_power_sums_domains(self, machine):
        machine.clock.advance(10.0)
        emon = machine.emon("R00-M0-N00")
        readings = emon.collect()
        assert EmonInterface.node_card_power(readings) == pytest.approx(
            sum(r.power_w for r in readings)
        )

    def test_idle_node_card_power_near_700w(self, machine):
        machine.clock.advance(10.0)
        readings = machine.emon("R00-M0-N00").collect()
        assert 600.0 < EmonInterface.node_card_power(readings) < 800.0

    def test_loaded_node_card_power_matches_bpm_output(self, machine):
        """Figure 2's check: EMON total ~= BPM DC output."""
        machine.run_job(MmpsWorkload(duration=1000.0), node_count=32, t_start=0.0)
        machine.clock.advance(500.0)
        emon_total = EmonInterface.node_card_power(
            machine.emon("R00-M0-N00").collect()
        )
        bpm_out = float(machine.bpm("R00-M0-N00").output_power_w(machine.clock.now))
        assert emon_total == pytest.approx(bpm_out, rel=0.05)

    def test_empty_collection_rejected(self):
        from repro.errors import SensorError

        with pytest.raises(SensorError):
            EmonInterface.node_card_power([])


class TestMachine:
    def test_node_count(self, machine):
        assert machine.node_count == 1024

    def test_job_placement_rounds_to_node_boards(self, machine):
        boards = machine.run_job(MmpsWorkload(duration=100.0), node_count=48,
                                 t_start=0.0)
        assert len(boards) == 2  # ceil(48/32)

    def test_job_too_large_rejected(self, machine):
        with pytest.raises(ConfigError):
            machine.run_job(MmpsWorkload(duration=100.0), node_count=2048,
                            t_start=0.0)

    def test_job_count_validated(self, machine):
        with pytest.raises(ConfigError):
            machine.run_job(MmpsWorkload(duration=100.0), node_count=0, t_start=0.0)

    def test_unknown_locations_rejected(self, machine):
        with pytest.raises(ConfigError):
            machine.bpm("R99-M0-N00")
        with pytest.raises(ConfigError):
            machine.emon("R99-M0-N00")
