"""Integration tests: the three Phi collection paths and their
trade-offs (the substance of the paper's §II-D)."""

import numpy as np
import pytest

from repro.analysis import welch_ttest
from repro.errors import ChecksumError, IpmbError, ScifError, SensorError
from repro.sim.clock import VirtualClock
from repro.sim.rng import RngRegistry
from repro.workloads.noop import PhiNoopWorkload
from repro.xeonphi.card import XEON_PHI_SE10P, PhiCard
from repro.xeonphi.ipmb import (
    IPMB_EXCHANGE_LATENCY_S,
    BaseboardManagementController,
    IpmbMessage,
    SmcIpmbResponder,
)
from repro.xeonphi.micras import MICRAS_READ_LATENCY_S, MicrasDaemon
from repro.xeonphi.scif import ScifNetwork
from repro.xeonphi.smc import SystemManagementController
from repro.xeonphi.sysmgmt import SYSMGMT_QUERY_LATENCY_S, SysMgmtApi


@pytest.fixture
def rig():
    """One card with all three collection paths wired up."""
    clock = VirtualClock()
    card = PhiCard(XEON_PHI_SE10P, rng=RngRegistry(41), clock=clock)
    smc = SystemManagementController(card)
    network = ScifNetwork(clock, card_count=1)
    api = SysMgmtApi(network, card, smc)
    daemon = MicrasDaemon(card, smc)
    daemon.mount()
    bmc = BaseboardManagementController(SmcIpmbResponder(smc, clock), clock)
    return clock, card, smc, api, daemon, bmc


class TestSysMgmtApi:
    def test_query_returns_power(self, rig):
        clock, card, _, api, _, _ = rig
        power = api.query_power_w()
        assert 100.0 < power < 120.0

    def test_query_costs_14_2ms(self, rig):
        clock, _, _, api, _, _ = rig
        t0 = clock.now
        api.query_power_w()
        assert clock.now - t0 == pytest.approx(SYSMGMT_QUERY_LATENCY_S, rel=1e-6)

    def test_polling_raises_card_power(self, rig):
        """The Figure 7 effect: in-band polling adds watts to the card."""
        clock, card, _, api, _, _ = rig
        card.board.schedule(PhiNoopWorkload(duration=200.0))
        baseline = float(card.true_power(50.0))
        api.start_polling(interval_s=1.0, t=60.0)
        polled = float(card.true_power(70.0))
        assert 0.5 < (polled - baseline) < 4.0  # slight but real

    def test_stop_polling_restores_power(self, rig):
        clock, card, _, api, _, _ = rig
        card.board.schedule(PhiNoopWorkload(duration=200.0))
        api.start_polling(interval_s=1.0, t=40.0)
        api.stop_polling(t=100.0)
        # Compare two instants where the noop ramp has converged and no
        # session is active: power is restored exactly.
        assert float(card.true_power(150.0)) == pytest.approx(
            float(card.true_power(30.0)), abs=1e-6
        )

    def test_double_start_rejected(self, rig):
        *_, api, _, _ = rig[2], rig[3], rig[3], rig[3], rig[4], rig[5]
        api = rig[3]
        api.start_polling(1.0, t=0.0)
        with pytest.raises(ScifError):
            api.start_polling(1.0, t=1.0)

    def test_stop_without_start_rejected(self, rig):
        api = rig[3]
        with pytest.raises(ScifError):
            api.stop_polling(t=0.0)

    def test_queries_counted(self, rig):
        api = rig[3]
        api.query("die_temp_c")
        api.query("power_w")
        assert api.queries_issued == 2


class TestMicrasDaemon:
    def test_pseudo_files_mounted(self, rig):
        card, daemon = rig[1], rig[4]
        files = card.uos_vfs.listdir("/sys/class/micras")
        assert "power" in files and "temp_die" in files

    def test_power_file_parses_back_to_watts(self, rig):
        daemon = rig[4]
        power = daemon.read_power_w()
        assert 100.0 < power < 120.0

    def test_read_cost_is_rapl_class(self, rig):
        clock, daemon = rig[0], rig[4]
        t0 = clock.now
        daemon.read("power")
        assert clock.now - t0 == pytest.approx(MICRAS_READ_LATENCY_S)

    def test_read_charges_card_side_process(self, rig):
        card, daemon = rig[1], rig[4]
        rank = card.uos_processes.spawn("app-rank0")
        daemon.read("temp_die", reader=rank)
        assert rank.cpu_seconds == pytest.approx(MICRAS_READ_LATENCY_S)

    def test_unknown_file_rejected(self, rig):
        daemon = rig[4]
        with pytest.raises(SensorError):
            daemon.read("gpu_power")

    def test_all_files_parse(self, rig):
        daemon = rig[4]
        for filename in MicrasDaemon.FILES:
            value = daemon.read_value(filename)
            assert np.isfinite(value)

    def test_daemon_does_not_perturb_power(self, rig):
        """Contrast with the API: daemon reads leave card power alone."""
        card, daemon = rig[1], rig[4]
        before = float(card.true_power(card.clock.now))
        for _ in range(100):
            daemon.read("power")
        after = float(card.true_power(card.clock.now))
        assert after == pytest.approx(before, abs=1e-9)


class TestOutOfBand:
    def test_bmc_reads_power(self, rig):
        bmc = rig[5]
        power = bmc.read_power_w()
        assert 100.0 < power < 120.0

    def test_exchange_costs_bus_latency(self, rig):
        clock, bmc = rig[0], rig[5]
        t0 = clock.now
        bmc.read_power_w()
        assert clock.now - t0 == pytest.approx(IPMB_EXCHANGE_LATENCY_S)

    def test_out_of_band_charges_no_process(self, rig):
        """The whole point of out-of-band: zero host/card CPU cost."""
        card, bmc = rig[1], rig[5]
        ranks = [card.uos_processes.spawn("rank")]
        bmc.read_power_w()
        assert all(p.cpu_seconds == 0.0 for p in ranks)

    def test_unknown_sensor_rejected(self, rig):
        with pytest.raises(IpmbError):
            rig[5].read_sensor("bogus")

    def test_agrees_with_in_band_at_same_instant(self, rig):
        """SMC is the single source: both paths see the same gauge."""
        clock, card, smc, api, _, bmc = rig
        # Freeze a moment by comparing direct SMC reads at equal t.
        t = 5.0
        assert smc.read_sensor("power_w", t) == smc.read_sensor("power_w", t)


class TestIpmbFraming:
    def test_roundtrip(self):
        msg = IpmbMessage(rs_addr=0x30, net_fn=0x04, rq_addr=0x20,
                          rq_seq=7, cmd=0x2D, data=b"\x01")
        assert IpmbMessage.from_bytes(msg.to_bytes()) == msg

    def test_header_checksum_detected(self):
        raw = bytearray(IpmbMessage(0x30, 0x04, 0x20, 1, 0x2D, b"\x00").to_bytes())
        raw[0] ^= 0xFF
        with pytest.raises(ChecksumError):
            IpmbMessage.from_bytes(bytes(raw))

    def test_body_checksum_detected(self):
        raw = bytearray(IpmbMessage(0x30, 0x04, 0x20, 1, 0x2D, b"\x00").to_bytes())
        raw[-2] ^= 0xFF
        with pytest.raises(ChecksumError):
            IpmbMessage.from_bytes(bytes(raw))

    def test_short_frame_rejected(self):
        with pytest.raises(IpmbError):
            IpmbMessage.from_bytes(b"\x01\x02")


class TestPathComparison:
    def test_latency_ordering_matches_paper(self):
        """daemon (0.04 ms) << API (14.2 ms); out-of-band slowest on the
        wire but free of process cost."""
        assert MICRAS_READ_LATENCY_S < SYSMGMT_QUERY_LATENCY_S < IPMB_EXCHANGE_LATENCY_S

    def test_api_vs_daemon_power_gap_is_significant(self, rig):
        """Figure 7: a statistically significant boxplot separation."""
        clock, card, smc, api, daemon, _ = rig
        card.board.schedule(PhiNoopWorkload(duration=400.0))
        # Daemon arm: sample the gauge over [20, 140] with no API session.
        t_daemon = np.arange(20.0, 140.0, 1.0)
        daemon_samples = np.array([smc.read_sensor("power_w", t) for t in t_daemon])
        # API arm: polling session active over [200, 320].
        api.start_polling(interval_s=1.0, t=160.0)
        t_api = np.arange(200.0, 320.0, 1.0)
        api_samples = np.array([smc.read_sensor("power_w", t) for t in t_api])
        assert api_samples.mean() > daemon_samples.mean()
        result = welch_ttest(api_samples, daemon_samples)
        assert result.pvalue < 0.01
