"""Xeon Phi sensor sources.

All three Phi mechanisms — in-band SysMgmt, the device-side MICRAS
daemon, and the out-of-band BMC — read the *same* System Management
Controller; they differ only in which sensors they expose and what the
channel crossing costs (and, for IPMB, the wire quantization the
channel applies).  One parameterized source covers all of them.
"""

from __future__ import annotations

import numpy as np

from repro.mech.cache import CachePlan, FieldPlan
from repro.mech.source import SensorSource
from repro.xeonphi.smc import SystemManagementController

#: (output field, SMC sensor) pairs per mechanism.
SYSMGMT_SENSORS: tuple[tuple[str, str], ...] = (
    ("card_w", "power_w"),
    ("die_temp_c", "die_temp_c"),
    ("exhaust_temp_c", "exhaust_temp_c"),
)
MICRAS_SENSORS: tuple[tuple[str, str], ...] = (
    ("card_w", "power_w"),
    ("die_temp_c", "die_temp_c"),
)
IPMB_SENSORS: tuple[tuple[str, str], ...] = SYSMGMT_SENSORS
#: The ``micsmc`` control panel (paper §II-D): a host-side utility
#: polling the card status the SMC exposes — power, thermals, fan,
#: core voltage, and memory usage.
MICSMC_SENSORS: tuple[tuple[str, str], ...] = (
    ("card_w", "power_w"),
    ("die_temp_c", "die_temp_c"),
    ("fan_rpm", "fan_rpm"),
    ("core_voltage_v", "core_voltage_v"),
    ("memory_used_b", "memory_used_b"),
)


class SmcSensorSource(SensorSource):
    """A named subset of one card's SMC sensors, as columns."""

    def __init__(self, smc: SystemManagementController,
                 sensors: tuple[tuple[str, str], ...]):
        self.smc = smc
        self.sensors = sensors

    def fields(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.sensors)

    def collect(self, times: np.ndarray) -> dict[str, np.ndarray]:
        return {
            name: self.smc.read_sensor_block(sensor, times)
            for name, sensor in self.sensors
        }

    def cache_plan(self) -> CachePlan:
        # Only power is sample-and-hold (the SMC's power gauge refresh
        # window); the temperatures are continuous thermal models.
        gauge = self.smc.sensors.power_gauge
        held = FieldPlan(gauge.update_interval, gauge.phase)
        return CachePlan(self.smc, {
            name: held if sensor == "power_w" else FieldPlan()
            for name, sensor in self.sensors
        })
