"""GPU board models.

A :class:`GpuDevice` owns the board-level truth: one power model summing
GPU die, GDDR and PCIe-interface contributions (NVML's power reading "is
for the entire board including memory"), a first-order thermal node, a
fan curve, memory accounting and clock states.
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
from repro.errors import ConfigError, DeviceError
from repro.sim.noise import UniformNoise
from repro.sim.rng import RngRegistry
from repro.sim.sensor import SampledSensor
from repro.workloads.base import Component

#: NVML's documented board-power refresh period: the power register
#: updates every ~60 ms, so faster polling re-reads the same value.
NVML_POWER_UPDATE_S = 0.060


@dataclass(frozen=True)
class GpuModel:
    """Static parameters of one GPU product."""

    name: str
    architecture: str            # "kepler", "fermi", ...
    cuda_cores: int
    peak_dp_tflops: float
    vram_bytes: int
    board_idle_w: float
    sm_w: float                  # dynamic range of the GPU die
    mem_w: float                 # dynamic range of GDDR
    pcie_w: float                # dynamic range of the PCIe interface
    tdp_w: float
    supports_power_readings: bool
    #: NVML-documented power accuracy (+/- W) and refresh period.
    power_accuracy_w: float = 5.0
    power_update_s: float = NVML_POWER_UPDATE_S
    base_clock_mhz: int = 706
    mem_clock_mhz: int = 2600
    ambient_c: float = 28.0
    thermal_r_c_per_w: float = 0.27
    thermal_c_j_per_c: float = 230.0


#: Tesla K20 — the paper's test device: "1.17 teraFLOPS at double
#: precision, 5 GB of GDDR5 memory, and 2496 CUDA cores".
KEPLER_K20 = GpuModel(
    name="Tesla K20", architecture="kepler", cuda_cores=2496,
    peak_dp_tflops=1.17, vram_bytes=5 * 1024**3,
    board_idle_w=44.0, sm_w=50.0, mem_w=60.0, pcie_w=8.0, tdp_w=225.0,
    supports_power_readings=True,
)

#: Tesla K40 — the other Kepler part with power support.
KEPLER_K40 = GpuModel(
    name="Tesla K40", architecture="kepler", cuda_cores=2880,
    peak_dp_tflops=1.43, vram_bytes=12 * 1024**3,
    board_idle_w=46.0, sm_w=58.0, mem_w=66.0, pcie_w=8.0, tdp_w=235.0,
    supports_power_readings=True, base_clock_mhz=745, mem_clock_mhz=3004,
)

#: Pre-Kepler board: present in many 2015 machine rooms, but NVML power
#: queries return NOT_SUPPORTED on it.
FERMI_M2090 = GpuModel(
    name="Tesla M2090", architecture="fermi", cuda_cores=512,
    peak_dp_tflops=0.665, vram_bytes=6 * 1024**3,
    board_idle_w=55.0, sm_w=90.0, mem_w=50.0, pcie_w=10.0, tdp_w=225.0,
    supports_power_readings=False, base_clock_mhz=650, mem_clock_mhz=1848,
)


class GpuDevice:
    """One GPU board with its sensors."""

    def __init__(self, model: GpuModel = KEPLER_K20,
                 rng: RngRegistry | None = None, index: int = 0):
        self.model = model
        self.rng = rng if rng is not None else RngRegistry()
        self.index = index
        self.board = LoadBoard()
        self._power_model = ComponentPowerModel(
            self.board,
            idle_w=model.board_idle_w,
            dynamic_w={
                Component.GPU_SM: model.sm_w,
                Component.GPU_MEM: model.mem_w,
                Component.GPU_PCIE: model.pcie_w,
            },
        )
        # Board power, clampable by the power-management limit.
        self.power_signal = LimitedSignal(self._power_model.signal())
        self.power_sensor = SampledSensor(
            truth=self.power_signal,
            update_interval=model.power_update_s,
            noise=UniformNoise(model.power_accuracy_w),
            seed=self.rng.seed(f"nvml.{model.name}.{index}.power"),
            quantum=1e-3,  # NVML reports integer milliwatts
        )
        self.thermal = ThermalModel(
            self.power_signal, ambient_c=model.ambient_c,
            r_c_per_w=model.thermal_r_c_per_w, c_j_per_c=model.thermal_c_j_per_c,
            stamp=history_stamp(self.board, self.power_signal),
        )
        self._allocated_bytes = 0
        self._power_limit_w = model.tdp_w

    # -- truth ---------------------------------------------------------------

    def true_power(self, t: np.ndarray | float) -> np.ndarray:
        """Unquantized board power (whole board, incl. memory)."""
        return self.power_signal.value(t)

    def temperature_c(self, t: np.ndarray | float) -> np.ndarray:
        """Die temperature in Celsius."""
        return self.thermal.temperature(t)

    def fan_speed_rpm(self, t: float) -> int:
        """Fan speed: linear curve from 30 % to 100 % duty between 40 C
        and 85 C, on a 4500 RPM max fan."""
        temp = float(self.temperature_c(t))
        duty = 0.30 + 0.70 * np.clip((temp - 40.0) / 45.0, 0.0, 1.0)
        return int(round(duty * 4500.0))

    # -- memory accounting ---------------------------------------------------

    def allocate(self, nbytes: int) -> None:
        """cudaMalloc-style accounting."""
        if nbytes < 0:
            raise ConfigError(f"allocation must be non-negative, got {nbytes}")
        if self.memory_used + nbytes > self.model.vram_bytes:
            raise DeviceError(
                f"{self.model.name}: out of memory "
                f"({self.memory_used + nbytes} > {self.model.vram_bytes})"
            )
        self._allocated_bytes += nbytes

    def free(self, nbytes: int) -> None:
        """cudaFree-style accounting."""
        if nbytes < 0 or nbytes > self._allocated_bytes:
            raise ConfigError(f"cannot free {nbytes} of {self._allocated_bytes}")
        self._allocated_bytes -= nbytes

    @property
    def memory_used(self) -> int:
        #: Driver/reserved overhead plus allocations, like nvmlMemory_t.
        reserved = 90 * 1024**2
        return reserved + self._allocated_bytes

    @property
    def memory_free(self) -> int:
        return self.model.vram_bytes - self.memory_used

    # -- clocks and limits -----------------------------------------------------

    def clock_mhz(self, domain: str, t: float) -> int:
        """Current clock: base when busy, deep idle when not."""
        if domain not in ("graphics", "sm", "mem"):
            raise ConfigError(f"unknown clock domain {domain!r}")
        busy = float(self.board.utilization(Component.GPU_SM, t)) > 0.01
        if domain == "mem":
            return self.model.mem_clock_mhz if busy else 324
        return self.model.base_clock_mhz if busy else 324

    def utilization(self, t: float) -> tuple[int, int]:
        """(gpu %, memory %) utilization, like nvmlUtilization_t."""
        gpu = float(self.board.utilization(Component.GPU_SM, t))
        mem = float(self.board.utilization(Component.GPU_MEM, t))
        return int(round(100 * gpu)), int(round(100 * mem))

    def pcie_throughput_kbps(self, t: float, bandwidth_Bps: float = 6.0e9) -> int:
        """Instantaneous PCIe payload throughput in KB/s."""
        util = float(self.board.utilization(Component.GPU_PCIE, t))
        return int(util * bandwidth_Bps / 1024.0)

    @property
    def power_limit_w(self) -> float:
        return self._power_limit_w

    def set_power_limit(self, watts: float, t: float) -> None:
        """Apply a board power cap (NVML power-management limit)."""
        if not 0.5 * self.model.tdp_w <= watts <= self.model.tdp_w:
            raise DeviceError(
                f"{self.model.name}: limit {watts} W outside "
                f"[{0.5 * self.model.tdp_w}, {self.model.tdp_w}] W"
            )
        self._power_limit_w = float(watts)
        self.power_signal.set_limit(t, watts)
