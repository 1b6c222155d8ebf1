"""Unit tests for the shared device machinery (load boards, power and
thermal models, limited signals)."""

import numpy as np
import pytest

from repro.devices.load import LoadBoard
from repro.devices.power import ComponentPowerModel, LimitedSignal, ThermalModel
from repro.errors import ConfigError
from repro.sim.integrate import CumulativeIntegral
from repro.sim.signals import ConstantSignal
from repro.workloads.base import Component, Phase, PhasedWorkload


def cpu_workload(duration=10.0, level=0.5):
    return PhasedWorkload("w", [Phase("p", duration, {Component.CPU_CORES: level})])


class TestLoadBoard:
    def test_empty_board_is_idle(self):
        board = LoadBoard()
        assert board.utilization(Component.CPU_CORES, 5.0) == 0.0

    def test_scheduled_workload_contributes(self):
        board = LoadBoard()
        board.schedule(cpu_workload(level=0.5), t_start=10.0)
        assert board.utilization(Component.CPU_CORES, 5.0) == 0.0
        assert board.utilization(Component.CPU_CORES, 15.0) == 0.5

    def test_overlapping_workloads_sum_and_clip(self):
        board = LoadBoard()
        board.schedule(cpu_workload(level=0.7))
        board.schedule(cpu_workload(level=0.7))
        assert board.utilization(Component.CPU_CORES, 5.0) == 1.0

    def test_parasitic_load(self):
        board = LoadBoard()
        board.add_parasitic(Component.PHI_CORES, ConstantSignal(0.02))
        assert board.utilization(Component.PHI_CORES, 1.0) == pytest.approx(0.02)

    def test_version_bumps_on_mutation(self):
        board = LoadBoard()
        v0 = board.version
        board.schedule(cpu_workload())
        board.add_parasitic(Component.CPU_CORES, ConstantSignal(0.1))
        assert board.version == v0 + 2

    def test_busy_until(self):
        board = LoadBoard()
        assert board.busy_until() == 0.0
        board.schedule(cpu_workload(duration=10.0), t_start=5.0)
        assert board.busy_until() == 15.0

    def test_signal_view_is_live(self):
        board = LoadBoard()
        sig = board.signal(Component.CPU_CORES)
        assert sig.value(5.0) == 0.0
        board.schedule(cpu_workload(level=0.4))
        assert sig.value(5.0) == pytest.approx(0.4)


class TestComponentPowerModel:
    def make(self, level=0.5):
        board = LoadBoard()
        board.schedule(cpu_workload(level=level))
        model = ComponentPowerModel(board, idle_w=10.0,
                                    dynamic_w={Component.CPU_CORES: 40.0})
        return board, model

    def test_idle_floor(self):
        _, model = self.make()
        assert model.power(100.0) == 10.0  # workload over

    def test_affine_scaling(self):
        _, model = self.make(level=0.5)
        assert model.power(5.0) == pytest.approx(10.0 + 0.5 * 40.0)

    def test_peak(self):
        _, model = self.make()
        assert model.peak_w == 50.0

    def test_component_power_with_idle_share(self):
        _, model = self.make(level=0.5)
        p = model.component_power(Component.CPU_CORES, 5.0, idle_share=0.2)
        assert p == pytest.approx(0.2 * 10.0 + 0.5 * 40.0)

    def test_validation(self):
        board = LoadBoard()
        with pytest.raises(ConfigError):
            ComponentPowerModel(board, idle_w=-1.0, dynamic_w={})
        with pytest.raises(ConfigError):
            ComponentPowerModel(board, idle_w=1.0, dynamic_w={Component.CPU_CORES: -5.0})

    def test_signal_views(self):
        _, model = self.make(level=0.5)
        assert model.signal().value(5.0) == pytest.approx(30.0)
        assert model.component_signal(Component.CPU_CORES).value(5.0) == pytest.approx(20.0)


class TestLimitedSignal:
    def test_no_limit_passthrough(self):
        sig = LimitedSignal(ConstantSignal(100.0))
        assert sig.value(5.0) == 100.0

    def test_limit_applies_from_set_time(self):
        sig = LimitedSignal(ConstantSignal(100.0))
        sig.set_limit(10.0, 60.0)
        assert sig.value(5.0) == 100.0
        assert sig.value(15.0) == 60.0

    def test_limits_stack_chronologically(self):
        sig = LimitedSignal(ConstantSignal(100.0))
        sig.set_limit(10.0, 60.0)
        sig.set_limit(20.0, 80.0)
        assert sig.value(15.0) == 60.0
        assert sig.value(25.0) == 80.0
        assert sig.current_limit(25.0) == 80.0

    def test_out_of_order_rejected(self):
        sig = LimitedSignal(ConstantSignal(1.0))
        sig.set_limit(10.0, 5.0)
        with pytest.raises(ConfigError):
            sig.set_limit(5.0, 5.0)

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ConfigError):
            LimitedSignal(ConstantSignal(1.0)).set_limit(0.0, 0.0)

    def test_version_bumps_on_limit_write(self):
        sig = LimitedSignal(ConstantSignal(1.0))
        assert sig.version == 0
        sig.set_limit(1.0, 0.5)
        sig.set_limit(2.0, 0.7)
        assert sig.version == 2

    def test_single_limit_is_a_plain_clamp(self):
        board = LoadBoard()
        board.schedule(cpu_workload(duration=4.0, level=0.8), t_start=1.0)
        inner = ComponentPowerModel(board, 10.0, {Component.CPU_CORES: 40.0}).signal()
        t = np.linspace(0.0, 6.0, 97)
        for limit in (np.inf, 25.0):
            sig = LimitedSignal(inner, default_limit=limit)
            np.testing.assert_array_equal(
                sig.value(t), np.minimum(inner.value(t), limit))


class TestThermalModel:
    def test_steady_state_at_constant_power(self):
        thermal = ThermalModel(ConstantSignal(100.0), ambient_c=25.0,
                               r_c_per_w=0.3, c_j_per_c=100.0)
        assert thermal.temperature(1000.0) == pytest.approx(25.0 + 30.0, rel=1e-3)

    def test_monotone_rise_after_power_step(self):
        board = LoadBoard()
        model = ComponentPowerModel(board, 40.0, {Component.GPU_SM: 80.0})
        thermal = ThermalModel(model.signal(), ambient_c=25.0)
        w = PhasedWorkload("w", [Phase("p", 100.0, {Component.GPU_SM: 1.0})])
        board.schedule(w, t_start=10.0)
        t = np.linspace(10.0, 60.0, 40)
        temps = thermal.temperature(t)
        assert np.all(np.diff(temps) > 0)  # steady climb, Figure 5 style

    def test_initial_condition_is_steady_state_of_initial_power(self):
        thermal = ThermalModel(ConstantSignal(50.0), ambient_c=25.0,
                               r_c_per_w=0.4, c_j_per_c=100.0)
        assert thermal.temperature(0.0) == pytest.approx(45.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThermalModel(ConstantSignal(1.0), r_c_per_w=0.0)

    def test_recurrence_matches_numpy_scalar_steps(self):
        """The Python-float recurrence is the same IEEE arithmetic as
        stepping on numpy scalars, bit for bit."""
        board = LoadBoard()
        board.schedule(cpu_workload(duration=30.0, level=0.7), t_start=3.0)
        power = ComponentPowerModel(board, 40.0, {Component.CPU_CORES: 80.0}).signal()
        thermal = ThermalModel(power, ambient_c=25.0)
        t = np.linspace(0.0, 40.0, 333)
        got = thermal.temperature(t)
        grid = thermal.dt * np.arange(0, int(np.ceil(40.0 * 1.1 / thermal.dt)) + 1)
        temps = [25.0 + float(power.value(np.asarray(0.0))) * thermal.r]
        decay = np.exp(-thermal.dt / (thermal.r * thermal.c))
        temp = np.float64(temps[0])
        for p in power.value(grid[1:]):
            steady = thermal.ambient_c + p * thermal.r
            temp = steady + (temp - steady) * decay
            temps.append(temp)
        np.testing.assert_array_equal(got, np.interp(t, grid, temps))


class TestStampedIntegral:
    def test_invalidates_on_schedule_change(self):
        board = LoadBoard()
        model = ComponentPowerModel(board, 10.0, {Component.CPU_CORES: 40.0})
        integral = CumulativeIntegral(model.signal(), dt=0.01,
                                      stamp=lambda: board.version)
        # Read while idle: 10 W x 10 s.
        assert integral.value(10.0) == pytest.approx(100.0, rel=1e-6)
        # Now a workload is scheduled over [0, 10]; cached idle history
        # must be discarded.
        board.schedule(cpu_workload(duration=10.0, level=1.0))
        assert integral.value(10.0) == pytest.approx(500.0, rel=1e-3)
