"""Failure-injection tests: the system degrades loudly, not silently —
and every injected failure leaves a fingerprint in the error counters."""

import math

import numpy as np
import pytest

from repro.api.chaos import FaultPlan, FaultRule
from repro.api.mech import mechanisms
from repro.core import moneq
from repro.core.moneq.backends import RaplMsrBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.errors import (
    AccessDeniedError,
    DeadlockError,
    FileNotFoundVfsError,
    IpmbError,
    MoneqBufferFullError,
    NotADirectoryVfsError,
    RankError,
    ScifDisconnectedError,
)
from repro.host.permissions import USER
from repro.obs.instruments import COLLECTOR_ERRORS, LAUNCHER_ERRORS
from repro.runtime.launcher import Launcher
from repro.runtime.ops import Barrier, Compute, Recv, Send
from repro.testbeds import mechanism_backend, phi_node, rapl_node
from repro.xeonphi.ipmb import IpmbMessage, SmcIpmbResponder


def _value(family_name: str, *label_values) -> float:
    """Current global-registry value of one counter sample."""
    import repro.obs as obs

    return obs.get_registry().get(family_name).value(*label_values)


class TestRuntimeFailures:
    def test_rank_crash_mid_communication_does_not_hang(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(dest=1, payload="x")
                raise RuntimeError("rank 0 dies after sending")
            yield Recv(source=0)
            yield Recv(source=0)  # would wait forever on the dead rank

        before = LAUNCHER_ERRORS.value("rank_crash")
        with pytest.raises(RankError) as exc:
            Launcher(program, size=2).run()
        assert exc.value.rank == 0
        assert LAUNCHER_ERRORS.value("rank_crash") == before + 1

    def test_survivors_blocked_on_dead_rank_deadlock_if_crash_is_silent(self):
        """A rank that returns early (not crashes) leaves waiters
        deadlocked — and the launcher says exactly who waits on what."""
        def program(ctx):
            if ctx.rank == 0:
                return "left early"
            yield Recv(source=0, tag=9)

        before = LAUNCHER_ERRORS.value("deadlock")
        with pytest.raises(DeadlockError, match="tag=9"):
            Launcher(program, size=2).run()
        assert LAUNCHER_ERRORS.value("deadlock") == before + 1

    def test_mixed_collective_entry_reported(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Barrier()
            else:
                yield Compute(1.0)  # never joins

        with pytest.raises(DeadlockError, match="Barrier"):
            Launcher(program, size=2).run()


class TestMoneqFailures:
    def test_buffer_exhaustion_surfaces_during_run(self):
        node, _ = rapl_node(seed=51)
        session = moneq.initialize(node, MoneqConfig(buffer_slots=5))
        full_before = _value("repro_moneq_buffer_full_total")
        errors_before = COLLECTOR_ERRORS.value("rapl_msr", "buffer_full")
        with pytest.raises(MoneqBufferFullError, match="buffer of 5"):
            node.events.run_until(node.clock.now + 60.0)
        assert _value("repro_moneq_buffer_full_total") == full_before + 1
        assert COLLECTOR_ERRORS.value("rapl_msr", "buffer_full") == \
            errors_before + 1
        # State is still coherent: finalize is refused exactly once.
        session.finalize()

    def test_dead_agent_process_does_not_abort_collection(self):
        node, _ = rapl_node(seed=52)
        package = node.device("cpu")
        proc = node.spawn("app")
        session = MoneqSession(
            [RaplMsrBackend(package, "s0")], node.events,
            processes=[proc], node_count=1, vfs=node.vfs,
        )
        node.events.run_until(node.clock.now + 1.0)
        node.processes.exit(proc.pid)  # app dies mid-profile
        node.events.run_until(node.clock.now + 1.0)
        result = session.finalize()
        # Collection continued; only live-process CPU time was charged.
        assert result.overhead.ticks >= 30
        assert proc.cpu_seconds > 0.0

    def test_output_dir_colliding_with_file_fails_loudly(self):
        node, _ = rapl_node(seed=53)
        node.vfs.write_text("/moneq", "not a directory")
        session = moneq.initialize(node)
        node.events.run_until(node.clock.now + 0.5)
        with pytest.raises((NotADirectoryVfsError, FileNotFoundVfsError)):
            session.finalize()

    def test_no_ticks_session_finalizes_cleanly(self):
        node, _ = rapl_node(seed=54)
        session = moneq.initialize(node)
        # Finalize before the first 60 ms tick.
        node.events.run_until(node.clock.now + 0.01)
        result = session.finalize()
        assert result.overhead.ticks == 0
        assert len(result.trace("pkg_w")) == 0

    def test_timer_stops_after_finalize(self):
        node, _ = rapl_node(seed=55)
        session = moneq.initialize(node)
        node.events.run_until(node.clock.now + 1.0)
        result = session.finalize()
        ticks = result.overhead.ticks
        node.events.run_until(node.clock.now + 5.0)
        assert session.ticks == ticks  # no posthumous collection


class TestEveryMechanismDegrades:
    """Fault injection over the *registry*, not a hand-kept list: a
    newly declared MechanismSpec is pulled into these tests by
    ``repro.api.mech.mechanisms()`` the moment it registers — forgetting to
    extend the failure suite is impossible by construction."""

    @pytest.mark.parametrize("name", sorted(mechanisms()))
    def test_total_fault_degrades_to_sensor_dark(self, name):
        from repro.chaos.faults import default_kind

        backend = mechanism_backend(name, seed=0xFA11)
        plan = FaultPlan(seed=3, rules=(FaultRule(name, rate=1.0),))
        kind = default_kind(name)
        errors_before = COLLECTOR_ERRORS.value(name, kind)
        t0 = backend.min_interval_s
        times = t0 + np.arange(4, dtype=np.float64) * backend.min_interval_s
        block = backend.read_block(times, plan=plan)
        # Every crossing failed: each row of every field reads dark.
        # (A wedged daemon *serves stale* rather than dark — but with
        # nothing ever delivered before the wedge, stale degrades to
        # sensor-dark too, so the visible contract is the same.)
        for field in backend.fields():
            assert np.isnan(block[field]).all()
        # ... with the mechanism's own fingerprint in the error counter.
        assert COLLECTOR_ERRORS.value(name, kind) > errors_before
        if kind == "daemon_wedged":
            assert plan.stats.stale == times.shape[0]
            assert plan.stats.dark == 0
        else:
            assert plan.stats.dark == times.shape[0]

    @pytest.mark.parametrize("name", sorted(mechanisms()))
    def test_scalar_read_at_degrades_too(self, name):
        backend = mechanism_backend(name, seed=0xFA12)
        plan = FaultPlan(seed=4, rules=(FaultRule(name, rate=1.0),))
        reading = backend.read_at(backend.min_interval_s, plan=plan)
        assert all(math.isnan(v) for v in reading.values())


class TestDeviceFailures:
    def test_scif_peer_close_mid_session(self):
        rig = phi_node(seed=56)
        rig.sysmgmt.query_power_w()  # works
        rig.sysmgmt._endpoint.close()
        before = COLLECTOR_ERRORS.value("sysmgmt", "disconnected")
        with pytest.raises((ScifDisconnectedError, Exception)):
            rig.sysmgmt.query_power_w()
        assert COLLECTOR_ERRORS.value("sysmgmt", "disconnected") == before + 1

    def test_scif_endpoint_send_after_close_counted(self):
        rig = phi_node(seed=56)
        endpoint = rig.sysmgmt._endpoint
        endpoint.close()
        before = COLLECTOR_ERRORS.value("scif", "disconnected")
        with pytest.raises(ScifDisconnectedError):
            endpoint.send(b"late")
        with pytest.raises(ScifDisconnectedError):
            endpoint.recv()
        assert COLLECTOR_ERRORS.value("scif", "disconnected") == before + 2

    def test_msr_unload_revokes_device_nodes(self):
        node, _ = rapl_node(seed=57)
        node.kernel.rmmod("msr")
        from repro.host.permissions import ROOT
        from repro.rapl.driver import read_msr_userspace
        from repro.rapl.msr import MSR_RAPL_POWER_UNIT

        with pytest.raises(FileNotFoundVfsError):
            read_msr_userspace(node, 0, MSR_RAPL_POWER_UNIT, ROOT)

    def test_msr_permission_revocation(self):
        node, _ = rapl_node(seed=58)
        node.vfs.chmod("/dev/cpu/0/msr", 0o600)  # admin tightens access
        from repro.rapl.driver import read_msr_userspace
        from repro.rapl.msr import MSR_RAPL_POWER_UNIT

        before = COLLECTOR_ERRORS.value("rapl_msr", "permission_denied")
        with pytest.raises(AccessDeniedError):
            read_msr_userspace(node, 0, MSR_RAPL_POWER_UNIT, USER)
        assert COLLECTOR_ERRORS.value("rapl_msr", "permission_denied") == \
            before + 1

    def test_ipmb_misaddressed_request_rejected(self):
        rig = phi_node(seed=59)
        responder = SmcIpmbResponder(rig.smc, rig.node.clock)
        stray = IpmbMessage(rs_addr=0x42, net_fn=0x04, rq_addr=0x20,
                            rq_seq=1, cmd=0x2D, data=b"\x00")
        with pytest.raises(IpmbError, match="addressed"):
            responder.handle(stray)

    def test_ipmb_wrong_command_rejected(self):
        rig = phi_node(seed=60)
        responder = SmcIpmbResponder(rig.smc, rig.node.clock)
        bad = IpmbMessage(rs_addr=0x30, net_fn=0x06, rq_addr=0x20,
                          rq_seq=1, cmd=0x01, data=b"\x00")
        with pytest.raises(IpmbError, match="unsupported"):
            responder.handle(bad)
