"""Host-side MICRAS agent.

"On the host platform this daemon allows for the configuration of the
device, logging of errors, and other common administrative utilities."
(paper §II-D)

The agent models those three jobs: a device-configuration store with
validated knobs (ECC, turbo, core-frequency governor), a RAS error log
fed by the card (machine-check style records with severities), and
admin queries (uptime, firmware versions).  It talks to its card over
the same SCIF network as everything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.xeonphi.card import PhiCard
from repro.xeonphi.scif import ScifNetwork

#: Well-known port of the host-side RAS agent (Figure 6's "Host RAS
#: Agent" listens host-side; the card connects up to it).
SCIF_RAS_PORT = 100

#: Valid configuration knobs and their allowed values.
CONFIG_KNOBS: dict[str, tuple] = {
    "ecc": ("enabled", "disabled"),
    "turbo": ("enabled", "disabled"),
    "governor": ("performance", "powersave", "ondemand"),
}

SEVERITIES = ("info", "corrected", "uncorrected", "fatal")


@dataclass(frozen=True)
class RasRecord:
    """One RAS (reliability/availability/serviceability) event."""

    timestamp: float
    severity: str
    source: str
    message: str


@dataclass
class DeviceConfig:
    """Validated per-card configuration."""

    values: dict[str, str] = field(default_factory=lambda: {
        "ecc": "enabled", "turbo": "disabled", "governor": "performance",
    })

    def set(self, knob: str, value: str) -> None:
        allowed = CONFIG_KNOBS.get(knob)
        if allowed is None:
            raise ConfigError(f"unknown config knob {knob!r}; have {sorted(CONFIG_KNOBS)}")
        if value not in allowed:
            raise ConfigError(f"{knob!r} must be one of {allowed}, got {value!r}")
        self.values[knob] = value

    def get(self, knob: str) -> str:
        if knob not in CONFIG_KNOBS:
            raise ConfigError(f"unknown config knob {knob!r}")
        return self.values[knob]


class HostMicrasAgent:
    """The host half of MICRAS for one card."""

    def __init__(self, network: ScifNetwork, card: PhiCard,
                 max_log_records: int = 1024):
        if max_log_records <= 0:
            raise ConfigError("log capacity must be positive")
        self.network = network
        self.card = card
        self.config = DeviceConfig()
        self.max_log_records = max_log_records
        self._log: list[RasRecord] = []
        self._dropped = 0
        # The host listens; the card-side monitoring thread connects.
        self._listener = network.listen(0, SCIF_RAS_PORT + card.mic_index)
        self._card_endpoint = network.connect(
            card.mic_index + 1, 0, SCIF_RAS_PORT + card.mic_index
        )
        self.boot_time = network.clock.now

    # -- configuration -----------------------------------------------------

    def set_config(self, knob: str, value: str) -> None:
        """Configure the device; takes one SCIF round trip."""
        self.config.set(knob, value)  # validate before touching the wire
        request = json.dumps({"op": "config", knob: value}).encode()
        self._card_endpoint.send(request)
        self._listener.recv()

    def get_config(self, knob: str) -> str:
        return self.config.get(knob)

    # -- RAS log ------------------------------------------------------------

    def card_reports_error(self, severity: str, source: str, message: str) -> RasRecord:
        """Card-side event delivered upstream (MCA handler -> host RAS
        agent in Figure 6)."""
        if severity not in SEVERITIES:
            raise ConfigError(f"severity must be one of {SEVERITIES}, got {severity!r}")
        payload = json.dumps({"severity": severity, "source": source,
                              "message": message}).encode()
        self._card_endpoint.send(payload)
        raw = json.loads(self._listener.recv())
        record = RasRecord(
            timestamp=self.network.clock.now,
            severity=raw["severity"], source=raw["source"], message=raw["message"],
        )
        if len(self._log) >= self.max_log_records:
            # Ring semantics: oldest records fall off, counted.
            self._log.pop(0)
            self._dropped += 1
        self._log.append(record)
        return record

    def log(self, min_severity: str = "info") -> list[RasRecord]:
        """Records at or above a severity."""
        if min_severity not in SEVERITIES:
            raise ConfigError(f"unknown severity {min_severity!r}")
        floor = SEVERITIES.index(min_severity)
        return [r for r in self._log if SEVERITIES.index(r.severity) >= floor]

    @property
    def dropped_records(self) -> int:
        return self._dropped

    # -- admin utilities --------------------------------------------------------

    def uptime_s(self) -> float:
        return self.network.clock.now - self.boot_time

    def status(self) -> dict[str, object]:
        """The 'control panel' summary blob."""
        t = self.network.clock.now
        return {
            "card": self.card.model.name,
            "mic_index": self.card.mic_index,
            "uptime_s": self.uptime_s(),
            "config": dict(self.config.values),
            "power_w": round(float(self.card.true_power(t)), 1),
            "die_temp_c": round(float(self.card.sensors.die_temperature_c(t)), 1),
            "errors_logged": len(self._log),
            "errors_dropped": self._dropped,
        }
