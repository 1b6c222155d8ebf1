"""Unit tests for the EMON interface and the assembled machine."""

import numpy as np
import pytest

from repro.bgq.domains import BGQ_DOMAINS, BgqDomain
from repro.bgq.emon import (
    EMON_QUERY_LATENCY_S,
    GENERATION_PERIOD_S,
    EmonInterface,
)
from repro.bgq.machine import BgqMachine
from repro.errors import ConfigError, SensorError
from repro.sim.noise import GaussianNoise
from repro.sim.rng import RngRegistry
from repro.sim.sensor import SampledSensor
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


class TestEmonBank:
    """The 14 EMON sensors are read as one bank; every read path gives
    the bits of a per-sensor sample-and-hold read."""

    @pytest.fixture
    def loaded(self, machine):
        # Loaded from t=0, so the power-on sample a read before the
        # first refresh holds differs from an idle one.
        machine.run_job(MmpsWorkload(duration=40.0), node_count=64,
                        t_start=0.0)
        return machine

    @staticmethod
    def grids():
        edges = sorted({max(k * GENERATION_PERIOD_S + spec.sample_phase + d,
                            0.0)
                        for spec in BGQ_DOMAINS for k in (0, 1, 2, 11, 150)
                        for d in (-1e-9, 0.0, 1e-9)})
        rng = np.random.default_rng(4)
        return [np.array([0.0]), np.array(edges),
                np.sort(rng.uniform(0.0, 60.0, 257)),
                np.arange(0.0, 45.0, 0.56)]

    def test_block_equals_collect_at_bit_for_bit(self, loaded):
        for location in ("R00-M0-N00", "R00-M0-N01", "R00-M0-N05"):
            emon = loaded.emon(location)
            for times in self.grids():
                block = emon.collect_block(times)
                for j, t in enumerate(times):
                    for reading in emon.collect_at(float(t)):
                        assert block[reading.domain][j] == (
                            reading.voltage_v * reading.current_a), (
                            location, t, reading.domain)

    def test_bank_equals_per_sensor_reads(self, loaded):
        """Voltage and current equal what a :class:`SampledSensor` per
        rail reads one generation back, with Gaussian noise seeded
        ``emon.<domain>.v`` / ``.i``."""
        class Rail:
            def __init__(self, read):
                self.value = read

        emon = loaded.emon("R00-M0-N00")
        board = emon.node_board
        times = np.concatenate(self.grids())
        readings = [emon.collect_at(float(t)) for t in times]
        for d, spec in enumerate(BGQ_DOMAINS):
            def sensor(kind, truth, sigma):
                return SampledSensor(
                    truth=Rail(lambda t: truth(spec.domain, t)),
                    update_interval=GENERATION_PERIOD_S,
                    noise=GaussianNoise(sigma),
                    seed=board.rng.seed(f"emon.{spec.domain.value}.{kind}"),
                    phase=spec.sample_phase)

            volts = sensor("v", board.domain_voltage, 0.002)
            amps = sensor("i", board.domain_current, 0.5)
            stale = np.maximum(
                volts.last_update_time(times) - GENERATION_PERIOD_S, 0.0)
            got = [r[d] for r in readings]
            assert all(r.domain is spec.domain for r in got)
            assert [r.sample_time for r in got] == stale.tolist()
            assert [r.voltage_v for r in got] == volts.read(stale).tolist()
            assert [r.current_a for r in got] == amps.read(stale).tolist()

    def test_reads_before_t0_rejected(self, machine):
        with pytest.raises(SensorError):
            machine.emon("R00-M0-N00").collect_block(np.array([1.0, -0.5]))
