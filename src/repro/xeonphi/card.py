"""The Xeon Phi card: cores, GDDR, its own little OS world.

A card is a device on a host node, but unlike a GPU it runs an embedded
Linux (the coprocessor uOS), so it carries its **own** virtual
filesystem and process table — that is where the MICRAS daemon lives and
where device-side collection contends with the application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.load import LoadBoard
from repro.devices.power import (
    ComponentPowerModel,
    LimitedSignal,
    ThermalModel,
    history_stamp,
)
from repro.errors import DeviceError
from repro.host.process import ProcessTable
from repro.host.vfs import VirtualFileSystem
from repro.sim.clock import VirtualClock
from repro.sim.integrate import CumulativeIntegral
from repro.sim.noise import GaussianNoise
from repro.sim.rng import RngRegistry
from repro.sim.sensor import SampledSensor
from repro.units import RAPL_ENERGY_UNIT_J
from repro.workloads.base import Component


@dataclass(frozen=True)
class PhiModel:
    """Static parameters of one Xeon Phi product."""

    name: str
    cores: int
    threads_per_core: int
    peak_dp_tflops: float
    gddr_bytes: int
    idle_w: float
    cores_w: float
    gddr_w: float
    pcie_w: float
    tdp_w: float
    ambient_c: float = 30.0
    thermal_r_c_per_w: float = 0.22
    thermal_c_j_per_c: float = 260.0
    #: SMC sensor refresh period (50 ms) and gauge noise.
    smc_update_s: float = 0.050
    smc_noise_w: float = 0.8


#: The Stampede part: "61 cores with ... 4 hardware threads per core
#: yielding a total of 244 threads with a peak performance of 1.2
#: teraFLOPS at double precision".
XEON_PHI_SE10P = PhiModel(
    name="Xeon Phi SE10P", cores=61, threads_per_core=4,
    peak_dp_tflops=1.2, gddr_bytes=8 * 1024**3,
    idle_w=110.0, cores_w=70.0, gddr_w=25.0, pcie_w=6.0, tdp_w=300.0,
)


class PhiSensors:
    """What a card's SMC measures: power, thermals, fan, rails and the
    power cap, as functions of the card's physical models.

    It holds the models, never the card.  The card's uOS files (MICRAS)
    read these sensors, so a path back to the card would close a cycle
    through ``card.uos_vfs``.
    """

    def __init__(self, model: PhiModel, power_seed: int):
        self.model = model
        self.board = LoadBoard()
        self.power_model = ComponentPowerModel(
            self.board,
            idle_w=model.idle_w,
            dynamic_w={
                Component.PHI_CORES: model.cores_w,
                Component.PHI_GDDR: model.gddr_w,
                Component.PHI_PCIE: model.pcie_w,
            },
        )
        # Card power is clampable: "the Xeon Phi actually uses RAPL
        # internally for power consumption limitation".
        self.power_signal = LimitedSignal(self.power_model.signal())
        #: The active card power cap (defaults to TDP).
        self.power_limit_w = model.tdp_w
        self.stamp = history_stamp(self.board, self.power_signal)
        self.thermal = ThermalModel(
            self.power_signal, ambient_c=model.ambient_c,
            r_c_per_w=model.thermal_r_c_per_w, c_j_per_c=model.thermal_c_j_per_c,
            stamp=self.stamp,
        )
        self.power_gauge = SampledSensor(
            truth=self.power_signal,
            update_interval=model.smc_update_s,
            noise=GaussianNoise(model.smc_noise_w),
            seed=power_seed,
            quantum=1e-6,  # MICRAS reports microwatts
        )

    def set_power_limit(self, watts: float, t: float) -> None:
        """Apply a card power cap from time ``t``."""
        if not 0.3 * self.model.tdp_w <= watts <= self.model.tdp_w:
            raise DeviceError(
                f"{self.model.name}: limit {watts} W outside "
                f"[{0.3 * self.model.tdp_w:.0f}, {self.model.tdp_w:.0f}] W"
            )
        self.power_limit_w = float(watts)
        self.power_signal.set_limit(t, watts)

    def die_temperature_c(self, t: np.ndarray | float) -> np.ndarray:
        return self.thermal.temperature(t)

    def intake_temperature_c(self, t: np.ndarray | float) -> np.ndarray:
        """Fan-in air temperature: ambient plus a whisper of recirculation."""
        return np.full(np.shape(t), self.model.ambient_c + 2.0)

    def exhaust_temperature_c(self, t: np.ndarray | float) -> np.ndarray:
        """Fan-out air temperature: between intake and die."""
        intake = self.intake_temperature_c(t)
        return intake + 0.55 * (self.die_temperature_c(t) - intake)

    def fan_speed_rpm(self, t: np.ndarray | float) -> np.ndarray:
        """Blower tracks die temperature (2700 RPM floor, 6000 max),
        in whole RPM."""
        duty = np.clip((self.die_temperature_c(t) - 45.0) / 50.0, 0.0, 1.0)
        return np.rint(2700 + duty * 3300)

    def core_rail_voltage(self, t: np.ndarray | float) -> np.ndarray:
        """VDD rail: nominal 1.0 V with load droop."""
        return 1.00 - 0.035 * self.board.utilization(Component.PHI_CORES, t)

    def core_rail_current(self, t: np.ndarray | float) -> np.ndarray:
        """Current on the core rail implied by core power and voltage."""
        watts = self.power_model.component_power(Component.PHI_CORES, t,
                                                 idle_share=0.55)
        return watts / self.core_rail_voltage(t)


class PhiCard:
    """One coprocessor card."""

    def __init__(self, model: PhiModel = XEON_PHI_SE10P,
                 rng: RngRegistry | None = None, mic_index: int = 0,
                 clock: VirtualClock | None = None):
        self.model = model
        self.rng = rng if rng is not None else RngRegistry()
        self.mic_index = mic_index
        #: Shared with the host when attached via ScifNetwork.
        self.clock = clock if clock is not None else VirtualClock()
        self.sensors = PhiSensors(
            model, self.rng.seed(f"phi.{model.name}.{mic_index}.power"))
        self.board = self.sensors.board
        self.power_signal = self.sensors.power_signal
        # The card's internal RAPL counter: same 2^-16 J / 32-bit scheme
        # as the host CPUs.
        self.energy_integral = CumulativeIntegral(
            self.power_signal, dt=1e-3, stamp=self.sensors.stamp
        )
        # Coprocessor uOS.
        self.uos_vfs = VirtualFileSystem()
        self.uos_vfs.mkdir("/sys", parents=True)
        self.uos_processes = ProcessTable()

    @property
    def total_threads(self) -> int:
        return self.model.cores * self.model.threads_per_core

    def true_power(self, t: np.ndarray | float) -> np.ndarray:
        """Unquantized card power (board level, after any cap)."""
        return self.power_signal.value(t)

    @property
    def power_limit_w(self) -> float:
        """The active card power cap (defaults to TDP)."""
        return self.sensors.power_limit_w

    def set_power_limit(self, watts: float, t: float) -> None:
        """Apply a card power cap from time ``t`` — the RAPL-internal
        limiting the SMC exposes."""
        self.sensors.set_power_limit(watts, t)

    def rapl_counter_raw(self, t: float) -> int:
        """The card-internal 32-bit RAPL energy counter."""
        energy = float(self.energy_integral.value(max(t, 0.0)))
        return int(energy / RAPL_ENERGY_UNIT_J + 1e-9) % (1 << 32)
