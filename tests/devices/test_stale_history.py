"""Cached device histories follow later schedule and cap changes.

The RAPL energy bank, the Phi card's energy integral and the Phi and
NVML thermal models cache their history from t=0.  A workload scheduled
or a power cap written after a read must not be served from the
history cached before it: the later reads equal the same reads on a
rig that was never read early, bit for bit.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.nvml.device import KEPLER_K20, GpuDevice
from repro.rapl.package import SANDY_BRIDGE_EP, CpuPackage
from repro.sim.rng import RngRegistry
from repro.workloads.base import Component, Phase, PhasedWorkload
from repro.xeonphi.card import XEON_PHI_SE10P, PhiCard

LATER = np.linspace(2.2, 9.0, 69)


def burst(component, level=0.95, duration=8.0):
    return PhasedWorkload("burst", [Phase("p", duration, {component: level})])


def rapl():
    pkg = CpuPackage(SANDY_BRIDGE_EP, rng=RngRegistry(11))
    pkg.board.schedule(burst(Component.CPU_CORES))
    return pkg, lambda t: pkg.energy_quanta(t), Component.CPU_CORES, 20.0


def phi_energy():
    card = PhiCard(XEON_PHI_SE10P, rng=RngRegistry(11))
    card.board.schedule(burst(Component.PHI_CORES))
    return card, card.energy_integral.value, Component.PHI_CORES, 150.0


def phi_thermal():
    card, _, component, cap = phi_energy()
    return card, card.sensors.die_temperature_c, component, cap


def nvml_thermal():
    gpu = GpuDevice(KEPLER_K20, rng=RngRegistry(11))
    gpu.board.schedule(burst(Component.GPU_SM))
    gpu.board.schedule(burst(Component.GPU_MEM))
    return gpu, gpu.temperature_c, Component.GPU_SM, 115.0


def cap(device, component, watts):
    device.set_power_limit(watts, 2.1)


def schedule(device, component, watts):
    device.board.schedule(burst(component, level=0.5, duration=3.0), t_start=2.1)


@pytest.mark.parametrize("rig", [rapl, phi_energy, phi_thermal, nvml_thermal])
@pytest.mark.parametrize("change", [cap, schedule])
def test_read_before_a_change_is_not_served_stale(rig, change):
    early, read_early, component, watts = rig()
    read_early(np.array([2.0]))
    change(early, component, watts)
    fresh, read_fresh, _, _ = rig()
    change(fresh, component, watts)
    want = read_fresh(LATER)
    np.testing.assert_array_equal(read_early(LATER), want)
    # The change is visible at all: the stale history would differ.
    unchanged, read_unchanged, _, _ = rig()
    assert not np.array_equal(read_unchanged(LATER), want)


@pytest.mark.parametrize("rig", [rapl, phi_energy, nvml_thermal])
def test_a_device_with_cached_histories_is_freed_by_refcount(rig):
    """The stamps hold the board and the cap, not the device, so a read
    device leaves no reference cycle for the collector to find."""
    gc.disable()
    try:
        device, read, _, _ = rig()
        read(np.array([1.0]))
        freed = weakref.ref(device)
        del device, read
        assert freed() is None
    finally:
        gc.enable()
