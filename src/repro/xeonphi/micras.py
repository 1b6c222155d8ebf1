"""The MICRAS daemon.

"On the device ... this daemon exposes access to environmental data
through pseudo-files mounted on a virtual file system.  In this way,
when one wishes to collect data, it's simply a process of reading the
appropriate file and parsing the data."  (paper §II-D)

The daemon publishes text pseudo-files under ``/sys/class/micras`` on
the card's uOS filesystem.  Reads cost 0.04 ms — "nearly the same
overhead as RAPL ... because the implementation on both is essentially
the same" — and are charged to the *card-side* reading process, because
"the data collected by the daemon is only accessible by the portion of
code which is running on the device", which is exactly the contention
trade-off the paper describes.
"""

from __future__ import annotations

from repro.errors import SensorError
from repro.host.process import Process
from repro.obs.instruments import collector
from repro.sim.clock import VirtualClock
from repro.xeonphi.card import PhiCard
from repro.xeonphi.smc import SystemManagementController

#: Per-read cost of a MICRAS pseudo-file (paper: "about 0.04 ms").
MICRAS_READ_LATENCY_S = 0.04e-3

_OBS = collector("micras")

class MicrasDaemon:
    """The daemon instance on one card's uOS.

    ``FILES`` maps pseudo-file name -> (SMC sensor, unit suffix, scale).
    MICRAS reports power in microwatts, voltages in microvolts and
    currents in milliamps, as the real ``/sys/class/micras`` files do.
    """

    FILES = {
        "power": ("power_w", "uW", 1e6),
        "temp_die": ("die_temp_c", "C", 1.0),
        "temp_intake": ("intake_temp_c", "C", 1.0),
        "temp_exhaust": ("exhaust_temp_c", "C", 1.0),
        "temp_gddr": ("gddr_temp_c", "C", 1.0),
        "fan": ("fan_rpm", "RPM", 1.0),
        "voltage": ("core_voltage_v", "uV", 1e6),
        "current": ("core_current_a", "mA", 1e3),
        "mem_used": ("memory_used_b", "B", 1.0),
        "mem_free": ("memory_free_b", "B", 1.0),
        "power_limit": ("power_limit_w", "uW", 1e6),
    }

    def __init__(self, card: PhiCard, smc: SystemManagementController):
        self.card = card
        self.smc = smc
        self.process = card.uos_processes.spawn("micras")
        self._mounted = False

    def mount(self) -> None:
        """Create the pseudo-file tree on the card's uOS filesystem."""
        if self._mounted:
            return
        vfs = self.card.uos_vfs
        vfs.mkdir("/sys/class", parents=True)
        vfs.mkdir("/sys/class/micras")
        for filename, (sensor, unit, scale) in self.FILES.items():
            vfs.create_dynamic(
                f"/sys/class/micras/{filename}",
                provider=_provider(self.smc, self.card.clock, sensor, unit,
                                   scale),
            )
        self._mounted = True

    # -- device-side read path ---------------------------------------------

    def read(self, filename: str, reader: Process | None = None) -> str:
        """Read one pseudo-file from card-side code.

        Charges the 0.04 ms read cost to the shared clock and to the
        reading process (the application's card-side rank, usually).
        """
        if not self._mounted:
            raise SensorError("MICRAS pseudo-files not mounted; call mount()")
        if filename not in self.FILES:
            raise SensorError(
                f"no MICRAS file {filename!r}; have {sorted(self.FILES)}"
            )
        self.card.clock.advance(MICRAS_READ_LATENCY_S)
        if reader is not None and reader.alive:
            reader.charge(MICRAS_READ_LATENCY_S)
        _OBS.record_query(MICRAS_READ_LATENCY_S)
        return self.card.uos_vfs.read_text(f"/sys/class/micras/{filename}")

    def read_power_w(self, reader: Process | None = None) -> float:
        """Parse the power pseudo-file back to watts."""
        text = self.read("power", reader)
        micro_w = int(text.split()[0])
        return micro_w / 1e6

    def read_value(self, filename: str, reader: Process | None = None) -> float:
        """Parse any pseudo-file back to its SMC unit."""
        text = self.read(filename, reader)
        _, _, scale = self.FILES[filename]
        return int(text.split()[0]) / scale


def _provider(smc: SystemManagementController, clock: VirtualClock,
              sensor: str, unit: str, scale: float):
    """One pseudo-file's content producer.  It lives in the card's uOS
    filesystem, so it holds the SMC and the clock, never the daemon or
    the card."""
    def produce() -> str:
        value = smc.read_sensor(sensor, clock.now)
        return f"{int(round(value * scale))} {unit}\n"

    return produce
