"""System Management Controller (SMC).

The card's management microcontroller: it owns the sensor inventory
(power, temperatures, fan, voltage/current rails, memory) and answers
two masters — the in-band SysMgmt path coming over SCIF, and the
platform BMC over IPMB for the out-of-band path.  Both see the *same*
sensor values at the same instant, which the out-of-band tests verify.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SensorError
from repro.xeonphi.card import PhiCard

#: Canonical SMC sensor names (the Table I rows the Phi supports).
SMC_SENSORS = (
    "power_w",
    "die_temp_c",
    "intake_temp_c",
    "exhaust_temp_c",
    "gddr_temp_c",
    "fan_rpm",
    "core_voltage_v",
    "core_current_a",
    "memory_used_b",
    "memory_free_b",
    "power_limit_w",
)

#: Memory the card's uOS keeps resident, in bytes.
_UOS_RESIDENCY_B = 512.0 * 1024**2


class SystemManagementController:
    """SMC for one card: named sensor reads at a virtual time.

    It holds the card's :class:`~repro.xeonphi.card.PhiSensors`, not the
    card, so the MICRAS files on the card's uOS may read through it.
    """

    def __init__(self, card: PhiCard):
        self.mic_index = card.mic_index
        self.sensors = sensors = card.sensors
        # Every reader takes a float or an array of times and returns
        # values shaped like it, as the sensor models do.
        self._readers: dict[str, Callable[[np.ndarray], np.ndarray]] = {
            "power_w": sensors.power_gauge.read,
            "die_temp_c": sensors.die_temperature_c,
            "intake_temp_c": sensors.intake_temperature_c,
            "exhaust_temp_c": sensors.exhaust_temperature_c,
            "gddr_temp_c": lambda t: sensors.die_temperature_c(t) - 8.0,
            "fan_rpm": sensors.fan_speed_rpm,
            "core_voltage_v": sensors.core_rail_voltage,
            "core_current_a": sensors.core_rail_current,
            "memory_used_b": lambda t: np.full(np.shape(t), _UOS_RESIDENCY_B),
            "memory_free_b": lambda t: np.full(
                np.shape(t), float(sensors.model.gddr_bytes) - _UOS_RESIDENCY_B),
            "power_limit_w": lambda t: np.full(np.shape(t),
                                               sensors.power_limit_w),
        }

    def set_power_limit(self, watts: float, t: float) -> None:
        """Write the card power cap through the SMC (the set half of the
        Table I 'Get/Set Power Limit' row)."""
        self.sensors.set_power_limit(watts, t)

    def sensor_names(self) -> list[str]:
        return list(SMC_SENSORS)

    def read_sensor(self, name: str, t: float) -> float:
        """Read one sensor at virtual time ``t``."""
        return float(self.read_sensor_block(name, np.array([t]))[0])

    def read_sensor_block(self, name: str, times: np.ndarray) -> np.ndarray:
        """Read one sensor at each time in ``times``."""
        reader = self._readers.get(name)
        if reader is None:
            raise SensorError(
                f"SMC of {self.sensors.model.name}: no sensor {name!r}; "
                f"have {sorted(self._readers)}"
            )
        return reader(np.asarray(times, dtype=np.float64))

    def read_all(self, t: float) -> dict[str, float]:
        """Snapshot of every sensor at ``t`` (one SMC scan)."""
        return {name: self.read_sensor(name, t) for name in SMC_SENSORS}
