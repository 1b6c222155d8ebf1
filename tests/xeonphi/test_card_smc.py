"""Unit tests for the Phi card and its SMC."""

import numpy as np
import pytest

from repro.errors import SensorError
from repro.sim.clock import VirtualClock
from repro.sim.rng import RngRegistry
from repro.workloads.gaussian import OffloadGaussianWorkload
from repro.workloads.noop import PhiNoopWorkload
from repro.xeonphi.card import XEON_PHI_SE10P, PhiCard
from repro.xeonphi.smc import SMC_SENSORS, SystemManagementController


@pytest.fixture
def card():
    return PhiCard(XEON_PHI_SE10P, rng=RngRegistry(31), clock=VirtualClock())


@pytest.fixture
def smc(card):
    return SystemManagementController(card)


class TestCardModel:
    def test_paper_specs(self):
        assert XEON_PHI_SE10P.cores == 61
        assert XEON_PHI_SE10P.threads_per_core == 4
        assert XEON_PHI_SE10P.peak_dp_tflops == 1.2

    def test_total_threads(self, card):
        assert card.total_threads == 244

    def test_idle_power(self, card):
        assert card.true_power(1.0) == XEON_PHI_SE10P.idle_w

    def test_noop_power_near_figure7_band(self, card):
        card.board.schedule(PhiNoopWorkload(duration=120.0))
        p = float(card.true_power(60.0))
        assert 110.0 < p < 118.0  # Figure 7's 111-119 W axis

    def test_offload_compute_power(self, card):
        w = OffloadGaussianWorkload(datagen_seconds=100.0)
        card.board.schedule(w)
        t = 100.0 + w.metadata["transfer_seconds"] + 10.0
        p = float(card.true_power(t))
        assert 170.0 < p < 210.0  # ~190 W/card -> 25 kW across 128 cards

    def test_rapl_counter_internal(self, card):
        r1 = card.rapl_counter_raw(1.0)
        r2 = card.rapl_counter_raw(2.0)
        assert r2 > r1

    def test_voltage_droops_under_load(self, card):
        card.board.schedule(OffloadGaussianWorkload(datagen_seconds=10.0))
        t_busy = 10.0 + card.board.scheduled[0].workload.metadata["transfer_seconds"] + 5.0
        assert card.core_rail_voltage(t_busy) < card.core_rail_voltage(1.0)

    def test_exhaust_between_intake_and_die(self, card):
        card.board.schedule(OffloadGaussianWorkload(datagen_seconds=10.0))
        t = 150.0
        intake = card.intake_temperature_c(t)
        exhaust = card.exhaust_temperature_c(t)
        die = float(card.die_temperature_c(t))
        assert intake < exhaust < die


class TestSmc:
    def test_all_sensors_readable(self, smc):
        snapshot = smc.read_all(1.0)
        assert set(snapshot) == set(SMC_SENSORS)
        assert snapshot["power_w"] > 0

    def test_unknown_sensor_rejected(self, smc):
        with pytest.raises(SensorError):
            smc.read_sensor("flux_capacitor", 0.0)

    def test_power_gauge_tracks_truth(self, card, smc):
        card.board.schedule(OffloadGaussianWorkload(datagen_seconds=10.0))
        t = 120.0
        gauge = smc.read_sensor("power_w", t)
        true = float(card.true_power(t))
        assert abs(gauge - true) < 4.0  # within gauge noise

    def test_memory_accounting_consistent(self, smc):
        used = smc.read_sensor("memory_used_b", 0.0)
        free = smc.read_sensor("memory_free_b", 0.0)
        assert used + free == XEON_PHI_SE10P.gddr_bytes

    def test_gddr_cooler_than_die(self, smc):
        assert smc.read_sensor("gddr_temp_c", 5.0) < smc.read_sensor("die_temp_c", 5.0)

    @pytest.mark.parametrize("name", SMC_SENSORS)
    def test_block_read_matches_single_reads(self, card, smc, name):
        """Every sensor reads the same bytes over a grid as one time at
        a time, under load (so the thermal and rail models move)."""
        card.board.schedule(OffloadGaussianWorkload(datagen_seconds=10.0))
        times = 0.013 + 0.37 * np.arange(400)
        block = smc.read_sensor_block(name, times)
        singles = np.array([smc.read_sensor(name, float(t)) for t in times])
        assert block.dtype == np.float64
        assert block.tobytes() == singles.tobytes()
