"""Unit tests for the powercap sysfs access path."""

import pytest

from repro.errors import KernelTooOldError
from repro.host.kernel import Kernel
from repro.host.node import Node
from repro.host.permissions import USER
from repro.rapl.domains import RaplDomain
from repro.rapl.package import SANDY_BRIDGE, CpuPackage
from repro.rapl.powercap import install_powercap_driver, read_energy_uj
from repro.sim.rng import RngRegistry
from repro.workloads.gaussian import GaussianEliminationWorkload


def make_node(kernel="3.13"):
    node = Node("pc-host", kernel=Kernel(kernel), rng=RngRegistry(303))
    node.attach("cpu", CpuPackage(SANDY_BRIDGE, rng=node.rng.fork("cpu0")))
    install_powercap_driver(node)
    return node


class TestPowercapTree:
    def test_zone_layout_matches_kernel(self):
        node = make_node()
        node.kernel.modprobe("intel_rapl")
        base = "/sys/class/powercap/intel-rapl:0"
        assert node.vfs.read_text(f"{base}/name").strip() == "package-0"
        assert node.vfs.read_text(f"{base}:0/name").strip() == "pp0"
        assert node.vfs.read_text(f"{base}:2/name").strip() == "dram"

    def test_kernel_gate(self):
        node = Node("old", kernel=Kernel("3.12"))
        node.attach("cpu", CpuPackage(SANDY_BRIDGE))
        install_powercap_driver(node)
        with pytest.raises(KernelTooOldError):
            node.kernel.modprobe("intel_rapl")

    def test_unload_removes_tree(self):
        node = make_node()
        node.kernel.modprobe("intel_rapl")
        node.kernel.rmmod("intel_rapl")
        assert not node.vfs.exists("/sys/class/powercap/intel-rapl:0")


class TestEnergyCounter:
    def test_world_readable_without_chmod(self):
        """The path's selling point vs the msr chardev."""
        node = make_node()
        node.kernel.modprobe("intel_rapl")
        value = read_energy_uj(node, "/sys/class/powercap/intel-rapl:0",
                               creds=USER)
        assert value >= 0

    def test_counts_microjoules(self):
        node = make_node()
        node.kernel.modprobe("intel_rapl")
        zone = "/sys/class/powercap/intel-rapl:0"
        e0 = read_energy_uj(node, zone)
        node.clock.advance(10.0)
        e1 = read_energy_uj(node, zone)
        # ~10 s of idle 5.5 W = 55 J = 55e6 uJ.
        assert (e1 - e0) == pytest.approx(55e6, rel=0.02)

    def test_agrees_with_msr_counter(self):
        node = make_node()
        node.kernel.modprobe("intel_rapl")
        package = node.device("cpu")
        node.clock.advance(5.0)
        sysfs_uj = read_energy_uj(node, "/sys/class/powercap/intel-rapl:0")
        msr_uj = int(package.energy_raw(RaplDomain.PKG, node.clock.now)
                     * package.units.energy_j * 1e6)
        assert sysfs_uj == msr_uj

    def test_tracks_load(self):
        node = make_node()
        node.kernel.modprobe("intel_rapl")
        package = node.device("cpu")
        package.board.schedule(GaussianEliminationWorkload(n=12_000), t_start=0.0)
        zone = "/sys/class/powercap/intel-rapl:0"
        e0 = read_energy_uj(node, zone)
        node.clock.advance(10.0)
        e1 = read_energy_uj(node, zone)
        assert (e1 - e0) > 30e6 * 10  # well above idle rate


class TestLimitFiles:
    def test_limit_file_reflects_msr_state(self):
        node = make_node()
        node.kernel.modprobe("intel_rapl")
        package = node.device("cpu")
        package.set_power_limit(40.0, t=0.0)
        text = node.vfs.read_text(
            "/sys/class/powercap/intel-rapl:0/power_limit_uw")
        assert int(text.strip()) == pytest.approx(40e6, abs=0.125e6)
        enabled = node.vfs.read_text(
            "/sys/class/powercap/intel-rapl:0/enabled")
        assert enabled.strip() == "1"
