"""Ground-truthing Table I: every claimed cell corresponds to an actual
surface on the simulator (and every denial to its absence).

The capability matrix is declared data; these tests keep it honest by
checking the declarations against the APIs the device packages expose.
"""

from repro.bgq.emon import EmonInterface
from repro.core.capability import (
    Availability,
    CapabilityRow,
    capability_matrix,
)
from repro.nvml.api import NvmlLibrary
from repro.testbeds import gpu_node, phi_node, rapl_node
from repro.xeonphi.smc import SMC_SENSORS


def cell(platform, category, item):
    return capability_matrix()[platform].cell(CapabilityRow(category, item))


class TestNvmlColumn:
    def test_no_voltage_or_current_query_exists(self):
        """Table I: NVML voltage/current unavailable — and indeed the
        API surface has no such query."""
        assert cell("NVML", "Total Power Consumption (Watts)",
                    "Voltage") is Availability.UNAVAILABLE
        assert not any("voltage" in name or "current" in name
                       for name in dir(NvmlLibrary))

    def test_claimed_queries_exist(self):
        node, _, nvml = gpu_node(seed=401)
        handle = nvml.device_get_handle_by_index(0)
        claims = {
            ("Temperature", "Die"): lambda: nvml.device_get_temperature(handle),
            ("Main Memory", "Used"): lambda: nvml.device_get_memory_info(handle).used,
            ("Fans", "Speed (In RPM)"): lambda: nvml.device_get_fan_speed(handle),
            ("Limits", "Get/Set Power Limit"):
                lambda: nvml.device_get_power_management_limit(handle),
        }
        for (category, item), query in claims.items():
            assert cell("NVML", category, item) is Availability.AVAILABLE
            assert query() is not None


class TestBgqColumn:
    def test_voltage_and_current_really_exposed(self):
        from repro.bgq.machine import BgqMachine
        from repro.sim.rng import RngRegistry

        machine = BgqMachine(racks=1, rng=RngRegistry(402), start_poller=False)
        machine.clock.advance(1.0)
        readings = machine.emon("R00-M0-N00").collect()
        assert all(r.voltage_v > 0 and r.current_a > 0 for r in readings)
        assert cell("Blue Gene/Q", "Total Power Consumption (Watts)",
                    "Voltage") is Availability.AVAILABLE

    def test_no_device_level_temperature_api(self):
        """Temperatures exist only in the environmental DB, not EMON."""
        assert cell("Blue Gene/Q", "Temperature", "Die") is Availability.UNAVAILABLE
        assert not any("temp" in name.lower() for name in dir(EmonInterface))


class TestPhiColumn:
    def test_every_temperature_row_has_an_smc_sensor(self):
        mapping = {
            ("Temperature", "Die"): "die_temp_c",
            ("Temperature", "DDR/GDDR"): "gddr_temp_c",
            ("Temperature", "Intake (Fan-In)"): "intake_temp_c",
            ("Temperature", "Exhaust (Fan-Out)"): "exhaust_temp_c",
        }
        rig = phi_node(seed=403)
        for (category, item), sensor in mapping.items():
            assert cell("Xeon Phi", category, item) is Availability.AVAILABLE
            assert sensor in SMC_SENSORS
            assert rig.smc.read_sensor(sensor, 1.0) > 0

    def test_power_limit_row_backed_by_setter(self):
        rig = phi_node(seed=404)
        assert cell("Xeon Phi", "Limits",
                    "Get/Set Power Limit") is Availability.AVAILABLE
        rig.smc.set_power_limit(280.0, t=0.0)
        assert rig.smc.read_sensor("power_limit_w", 1.0) == 280.0


class TestRaplColumn:
    def test_dram_domain_really_measured(self):
        node, _ = rapl_node(seed=405)
        package = node.device("cpu")
        from repro.rapl.domains import RaplDomain

        assert cell("RAPL", "Total Power Consumption (Watts)",
                    "Main Memory") is Availability.AVAILABLE
        assert package.energy_raw(RaplDomain.DRAM, 5.0) > 0

    def test_no_temperature_anywhere_in_rapl(self):
        """RAPL is energy/limits only; temperature queries live in
        other MSR families the paper does not count as RAPL."""
        import repro.rapl.msr as msr_module

        assert cell("RAPL", "Temperature", "Die") is Availability.UNAVAILABLE
        assert not any("THERM" in name for name in dir(msr_module))

    def test_pp1_declared_but_zero_on_servers(self):
        from repro.rapl.domains import RaplDomain
        from repro.rapl.package import SANDY_BRIDGE_EP, CpuPackage

        package = CpuPackage(SANDY_BRIDGE_EP)
        assert float(package.true_power(RaplDomain.PP1, 1.0)) == 0.0
