"""One test per headline sentence of the paper.

A consolidated map from the paper's prose to the code that reproduces
it — the quickest way to audit the reproduction's coverage.  Each test
cites the section it checks.
"""

from repro.core import moneq
from repro.testbeds import multi_device_node, phi_node, rapl_node


class TestSectionI:
    def test_two_lines_of_code_on_any_platform(self):
        """§I: 'with as few as two lines of code on any of the hardware
        platforms mentioned in this paper one can easily obtain
        environmental data'."""
        node, _ = multi_device_node(seed=201)
        session = moneq.initialize(node)               # line 1
        node.events.run_until(node.clock.now + 5.0)
        result = moneq.finalize(session)               # line 2
        assert len(result.traces) == 3  # RAPL + NVML + Phi, one call each


class TestSectionIIA:
    def test_node_card_granularity_is_a_hard_floor(self):
        """§II-A: EMON 'can only collect data at the node card level
        (every 32 nodes) ... not possible to overcome in software'."""
        from repro.bgq.machine import BgqMachine
        from repro.sim.rng import RngRegistry

        machine = BgqMachine(racks=1, rng=RngRegistry(202), start_poller=False)
        board = machine.node_boards()[0]
        assert board.node_count == 32
        # The EMON interface has no per-card read — only board-level.
        emon = machine.emon(board.location)
        assert not hasattr(emon, "collect_card")

    def test_polling_interval_configurable_60_to_1800(self):
        """§II-A: '60-1,800 seconds'."""
        from repro.bgq.envdb import MAX_POLL_INTERVAL_S, MIN_POLL_INTERVAL_S

        assert (MIN_POLL_INTERVAL_S, MAX_POLL_INTERVAL_S) == (60.0, 1800.0)


class TestSectionIIB:
    def test_rapl_scope_is_whole_socket(self):
        """§II-B: 'it's not possible to collect data for individual
        cores' — the MSR file exposes no per-core energy registers."""
        from repro.rapl.msr import ENERGY_STATUS_MSR

        # Four domain registers exist; none are per-core.
        assert len(ENERGY_STATUS_MSR) == 4

    def test_msr_fastest_access_of_all_mechanisms(self):
        """§II-B: 'This is the fastest access time that we have seen for
        all of the hardware discussed in this paper.'"""
        from repro.bgq.emon import EMON_QUERY_LATENCY_S
        from repro.core.moneq.backends import NVML_QUERY_LATENCY_S
        from repro.rapl.package import CpuPackage
        from repro.xeonphi.micras import MICRAS_READ_LATENCY_S
        from repro.xeonphi.sysmgmt import SYSMGMT_QUERY_LATENCY_S

        msr = CpuPackage.MSR_READ_LATENCY_S
        assert msr < MICRAS_READ_LATENCY_S
        assert msr < EMON_QUERY_LATENCY_S
        assert msr < SYSMGMT_QUERY_LATENCY_S
        assert msr < NVML_QUERY_LATENCY_S


class TestSectionIIC:
    def test_only_kepler_supports_power(self):
        """§II-C: 'The only NVIDIA GPUs which support power data
        collection are those based on the Kepler architecture.'"""
        from repro.nvml.device import FERMI_M2090, KEPLER_K20, KEPLER_K40

        assert KEPLER_K20.supports_power_readings
        assert KEPLER_K40.supports_power_readings
        assert not FERMI_M2090.supports_power_readings

    def test_board_scope_includes_memory(self):
        """§II-C: 'the power consumption reported is for the entire
        board including memory'."""
        from repro.testbeds import gpu_node
        from repro.workloads.base import Component, Phase, PhasedWorkload

        node, gpu, nvml = gpu_node(seed=203)
        mem_only = PhasedWorkload("m", [Phase("p", 60.0, {Component.GPU_MEM: 1.0})])
        gpu.board.schedule(mem_only, t_start=0.0)
        node.clock.advance_to(30.0)
        handle = nvml.device_get_handle_by_index(0)
        mw = nvml.device_get_power_usage(handle)
        # Pure memory load raises the reported figure far above idle.
        assert mw > (gpu.model.board_idle_w + 0.8 * gpu.model.mem_w) * 1000


class TestSectionIID:
    def test_api_pricier_than_daemon_in_both_currencies(self):
        """§II-D: the API costs 14.2 ms *and* raises card power; the
        daemon costs 0.04 ms and does not."""
        rig = phi_node(seed=204)
        baseline = float(rig.card.true_power(1.0))
        t0 = rig.node.clock.now
        rig.sysmgmt.query_power_w()
        api_cost = rig.node.clock.now - t0
        t0 = rig.node.clock.now
        rig.micras.read("power")
        daemon_cost = rig.node.clock.now - t0
        assert api_cost / daemon_cost > 100.0
        rig.sysmgmt.start_polling(1.0, t=10.0)
        assert float(rig.card.true_power(20.0)) > baseline

    def test_daemon_data_only_accessible_on_device(self):
        """§II-D: 'the data collected by the daemon is only accessible
        by the portion of code which is running on the device' — the
        pseudo-files live on the card's uOS filesystem, not the host's."""
        rig = phi_node(seed=205)
        assert rig.card.uos_vfs.exists("/sys/class/micras/power")
        assert not rig.node.vfs.exists("/sys/class/micras/power")


class TestSectionIII:
    def test_moneq_default_interval_is_hardware_minimum(self):
        """§III: 'MonEQ will pull data ... at the lowest polling
        interval possible for the given hardware.'"""
        node, _ = rapl_node(seed=206)
        session = moneq.initialize(node)
        assert session.interval_s == 0.060

    def test_costly_operations_outside_the_run(self):
        """§III: 'MonEQ [performs] its most costly operations when the
        application isn't running (i.e., before and after execution)' —
        per-tick cost is far below init and finalize."""
        node, _ = rapl_node(seed=207)
        result = moneq.profile_run(node, duration_s=10.0)
        per_tick = result.overhead.collection_s / max(result.overhead.ticks, 1)
        assert per_tick < result.overhead.initialize_s
        assert per_tick < result.overhead.finalize_s

    def test_memory_overhead_constant_with_scale(self):
        """§III: 'Memory overhead is essentially a constant with respect
        to scale.'"""
        from repro.experiments.table3 import run_scale

        small = run_scale(32)
        large = run_scale(1024)
        assert small.memory_bytes_per_agent == large.memory_bytes_per_agent > 0


class TestSectionIV:
    def test_total_power_is_the_only_universal_data_point(self):
        """§IV: 'Just about the only data point which is collectible on
        all of these platforms is total power consumption.'"""
        from repro.core.capability import universal_rows

        keys = [row.key for row in universal_rows()]
        assert keys == ["Total Power Consumption (Watts)/Total"]

    def test_granularity_differs_between_platforms(self):
        """§IV: 'For accelerators, this is the power consumption of the
        entire device, for a Blue Gene/Q, this is a node card (32
        nodes).'"""
        from repro.bgq.topology import COMPUTE_CARDS_PER_NODE_BOARD

        assert COMPUTE_CARDS_PER_NODE_BOARD == 32
