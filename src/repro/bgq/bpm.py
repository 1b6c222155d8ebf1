"""Bulk power modules.

"In each BG/Q rack, bulk power modules (BPMs) convert AC power to 48 V
DC power, which is then distributed to the two midplanes. ...  The Blue
Gene environmental database stores power consumption information (in
watts and amperes) in both the input and output directions of the BPM."
(paper §II-A)

One BPM in this model feeds one node board — the granularity at which
Figure 1 and Figure 2 are compared ("the power consumption of the node
card matches that of the data collected at the BPM in terms of total
power consumption").
"""

from __future__ import annotations

import numpy as np

from repro.bgq.topology import NodeBoard
from repro.errors import ConfigError
from repro.sim.hashrand import hash_normal

#: Facility AC feed voltage.
AC_INPUT_VOLTAGE = 208.0
#: DC distribution voltage.
DC_OUTPUT_VOLTAGE = 48.0


class BulkPowerModule:
    """AC->48 V DC converter with input/output metering."""

    def __init__(self, node_board: NodeBoard, efficiency: float = 0.90,
                 meter_noise_w: float = 8.0, seed: int = 0):
        if not 0.5 < efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in (0.5, 1], got {efficiency}")
        if meter_noise_w < 0.0:
            raise ConfigError(f"meter noise must be non-negative, got {meter_noise_w}")
        self.node_board = node_board
        self.efficiency = float(efficiency)
        self.meter_noise_w = float(meter_noise_w)
        self.seed = seed
        self.location = f"{node_board.location}-BPM"

    # -- truth -----------------------------------------------------------------

    def output_power_w(self, t) -> np.ndarray:
        """DC power delivered to the node board."""
        return np.asarray(self.node_board.total_power(t), dtype=np.float64)

    def input_power_w(self, t) -> np.ndarray:
        """AC power drawn from the facility: output / efficiency, with a
        small fixed conversion floor."""
        return self.output_power_w(t) / self.efficiency + 12.0

    # -- metered readings (what the environmental DB records) ---------------

    def metered(self, t: float) -> dict[str, float]:
        """One metering scan: input/output power (W) and current (A).

        Meter noise is deterministic per scan instant.
        """
        idx = int(round(t * 1000.0))
        noise_in = float(hash_normal(self.seed, idx)) * self.meter_noise_w
        noise_out = float(hash_normal(self.seed ^ 0xBEEF, idx)) * self.meter_noise_w
        # One board evaluation for both directions: the same arithmetic
        # as input_power_w/output_power_w, bit for bit.
        out = float(self.output_power_w(t))
        input_w = (out / self.efficiency + 12.0) + noise_in
        output_w = out + noise_out
        return {
            "input_power_w": input_w,
            "input_current_a": input_w / AC_INPUT_VOLTAGE,
            "output_power_w": output_w,
            "output_current_a": output_w / DC_OUTPUT_VOLTAGE,
        }
